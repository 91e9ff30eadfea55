"""Synthetic paired data, the closed-grammar tokenizer, and BLEU-4.

Captions come from the template "a <color> block at <position>" joined with
"and".  Colors map one-to-one onto codebook entries (token 1 + color index,
token 0 is background), and images are rendered by decoding that token
grid, so every generated image round-trips the quantizer losslessly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .codec import ImageGrid, VisualCodebook, decode_tokens
from .model import N_SPECIALS

COLORS = ("red", "green", "blue", "yellow", "purple", "orange", "white", "black")
POSITIONS = ("top left", "top right", "bottom left", "bottom right", "center")
_BASE_WORDS = ("a", "block", "at", "and", "top", "bottom", "left", "right", "center")


class TextVocab:
    """Bijective word <-> id map; ids start after the reserved specials."""

    def __init__(self, words=None):
        words = tuple(words) if words is not None else _BASE_WORDS + COLORS
        if len(set(words)) != len(words):
            raise ValueError("duplicate words in vocabulary")
        self.id_of = {w: N_SPECIALS + i for i, w in enumerate(words)}
        self.word_of = {i: w for w, i in self.id_of.items()}

    @property
    def size(self) -> int:
        return len(self.id_of)


def encode_text(s: str, vocab: TextVocab) -> np.ndarray:
    ids = []
    for word in s.split():
        if word not in vocab.id_of:
            raise ValueError(f"unknown token {word!r}")
        ids.append(vocab.id_of[word])
    return np.asarray(ids, dtype=np.int64)


def decode_text(ids, vocab: TextVocab) -> str:
    words = []
    for i in ids:
        i = int(i)
        if i not in vocab.word_of:
            raise ValueError(f"id {i} is not a word token")
        words.append(vocab.word_of[i])
    return " ".join(words)


# ---------------------------------------------------------------------------
# synthetic paired examples


@dataclass(frozen=True)
class BlockSpec:
    color: int  # index into COLORS
    position: str  # one of POSITIONS


@dataclass
class PairedExample:
    image: ImageGrid
    caption: np.ndarray  # word token ids
    meta: tuple[BlockSpec, ...]


def _position_rect(position: str, grid_dims: tuple[int, int]) -> tuple[int, int, int, int]:
    rows, cols = grid_dims
    h, w = max(rows // 4, 1), max(cols // 4, 1)
    anchors = {
        "top left": (rows // 8, cols // 8),
        "top right": (rows // 8, cols - cols // 8 - w),
        "bottom left": (rows - rows // 8 - h, cols // 8),
        "bottom right": (rows - rows // 8 - h, cols - cols // 8 - w),
        "center": ((rows - h) // 2, (cols - w) // 2),
    }
    r0, c0 = anchors[position]
    return r0, c0, h, w


def spec_token_grid(meta, grid_dims: tuple[int, int]) -> np.ndarray:
    """Visual token grid for a block layout: background 0, color c -> 1 + c."""
    rows, cols = grid_dims
    if rows < 4 or cols < 4:
        raise ValueError("block layouts need at least a 4x4 patch grid")
    grid = np.zeros((rows, cols), dtype=np.int64)
    for block in meta:
        r0, c0, h, w = _position_rect(block.position, grid_dims)
        grid[r0:r0 + h, c0:c0 + w] = 1 + block.color
    return grid.reshape(-1)


def caption_text(meta) -> str:
    return " and ".join(f"a {COLORS[b.color]} block at {b.position}" for b in meta)


def render_example(meta, cb: VisualCodebook, grid_dims: tuple[int, int],
                   vocab: TextVocab) -> PairedExample:
    tokens = spec_token_grid(meta, grid_dims)
    return PairedExample(image=decode_tokens(tokens, cb, grid_dims),
                         caption=encode_text(caption_text(meta), vocab),
                         meta=tuple(meta))


def gen_dataset(n: int, seed: int, cb: VisualCodebook, grid_dims: tuple[int, int],
                vocab: TextVocab) -> list[PairedExample]:
    """Deterministic i.i.d. block layouts with 1-3 blocks at distinct positions.

    Blocks are listed in canonical position order, so the caption is a
    function of the image (no ordering ambiguity in either direction).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cb.K < 1 + len(COLORS):
        raise ValueError(f"codebook too small: need {1 + len(COLORS)} entries, have {cb.K}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        n_blocks = int(rng.integers(1, 4))
        positions = sorted(rng.choice(len(POSITIONS), size=n_blocks, replace=False))
        meta = tuple(BlockSpec(color=int(rng.integers(0, len(COLORS))),
                               position=POSITIONS[int(p)]) for p in positions)
        out.append(render_example(meta, cb, grid_dims, vocab))
    return out


_SPLIT_MIX = 2654435761  # Knuth multiplicative hash


def split_dataset(examples, val_frac: float = 0.1):
    """Deterministic disjoint train/val split by index hash."""
    train, val = [], []
    cut = val_frac * 2**32
    for i, ex in enumerate(examples):
        (val if (i * _SPLIT_MIX) % 2**32 < cut else train).append(ex)
    return train, val


# ---------------------------------------------------------------------------
# dataset file format: one "<caption text>\t<spec string>" record per line


def _meta_to_string(meta) -> str:
    return ";".join(f"{COLORS[b.color]}@{b.position.replace(' ', '-')}" for b in meta)


def _meta_from_string(s: str) -> tuple[BlockSpec, ...]:
    """Blocks at distinct positions, in POSITIONS order (gen_dataset's), so no
    block paints over another and the caption is a function of the image."""
    blocks = []
    for part in s.split(";"):
        color, _, position = part.partition("@")
        if color not in COLORS or position.replace("-", " ") not in POSITIONS:
            raise ValueError(f"bad block spec {part!r}")
        blocks.append(BlockSpec(color=COLORS.index(color), position=position.replace("-", " ")))
    order = [POSITIONS.index(b.position) for b in blocks]
    if order != sorted(set(order)):
        raise ValueError(f"blocks must sit at distinct positions in the order "
                         f"{', '.join(p.replace(' ', '-') for p in POSITIONS)}, got {s!r}")
    return tuple(blocks)


def save_dataset(examples, path, vocab: TextVocab):
    with open(path, "w") as fh:
        for ex in examples:
            fh.write(f"{decode_text(ex.caption, vocab)}\t{_meta_to_string(ex.meta)}\n")


def load_dataset(path, cb: VisualCodebook, grid_dims: tuple[int, int],
                 vocab: TextVocab, max_text_len: int) -> list[PairedExample]:
    """Read a dataset file; a caption longer than max_text_len is refused."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            caption, tab, spec = line.partition("\t")
            if not tab:
                raise ValueError(f"{path}:{lineno}: expected '<caption>\\t<spec>'")
            try:
                meta = _meta_from_string(spec)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            ex = render_example(meta, cb, grid_dims, vocab)
            if decode_text(ex.caption, vocab) != caption:
                raise ValueError(f"{path}:{lineno}: caption does not match block spec")
            if ex.caption.size > max_text_len:
                raise ValueError(f"{path}:{lineno}: {ex.caption.size} text tokens exceeds "
                                 f"max_text_len {max_text_len}")
            out.append(ex)
    return out


# ---------------------------------------------------------------------------
# BLEU-4


def _ngram_counts(ids, n: int) -> Counter:
    return Counter(tuple(ids[i:i + n]) for i in range(len(ids) - n + 1))


def bleu4(candidate, references) -> float:
    """Geometric mean of modified 1-4-gram precisions (+1 smoothing for
    n >= 2) times the brevity penalty."""
    references = [list(map(int, r)) for r in references]
    if not references:
        raise ValueError("bleu4 needs at least one reference")
    candidate = list(map(int, candidate))
    c = len(candidate)
    if c == 0:
        return 0.0

    log_sum = 0.0
    for n in range(1, 5):
        cand = _ngram_counts(candidate, n)
        total = max(c - n + 1, 0)
        clipped = 0
        if cand:
            best = Counter()
            for ref in references:
                for gram, cnt in _ngram_counts(ref, n).items():
                    best[gram] = max(best[gram], cnt)
            clipped = sum(min(cnt, best[gram]) for gram, cnt in cand.items())
        if n == 1:
            if clipped == 0:
                return 0.0
            log_sum += math.log(clipped / total)
        else:
            log_sum += math.log((clipped + 1) / (total + 1))

    # closest reference length; ties prefer the shorter
    r = min((abs(len(ref) - c), len(ref)) for ref in references)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum / 4.0)
