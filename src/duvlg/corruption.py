"""Input corruption: blockwise patch masking and Poisson span infilling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class PatchMask:
    grid_dims: tuple[int, int]
    masked: np.ndarray  # [rows x cols] bool

    @property
    def flat(self) -> np.ndarray:
        return self.masked.reshape(-1)

    @property
    def count(self) -> int:
        return int(self.masked.sum())


@dataclass
class CorruptedText:
    corrupted: np.ndarray  # original with each covered span collapsed to one mask id
    original: np.ndarray
    covered: int  # original tokens covered
    n_draws: int  # spans actually drawn (merged spans still count separately)


def blockwise_mask(rows: int, cols: int, rate: float, rng: np.random.Generator,
                   min_block: int = 4, max_block: int = 16,
                   aspect_min: float = 0.3) -> PatchMask:
    """Union random rectangles until at least ceil(rate * rows * cols) patches
    are masked.

    Each placed rectangle covers between min(min_block, grid) and max_block
    patches, so the final count overshoots the target by less than max_block.
    Raises ValueError, before any draw, when no draw can place a rectangle.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    if min_block < 1 or not aspect_min > 0:
        raise ValueError(f"need min_block >= 1 and aspect_min > 0, got {min_block} "
                         f"and {aspect_min}")
    check_block_shape(rows, cols, min_block, max_block, aspect_min)
    n = rows * cols
    target = math.ceil(rate * n)
    masked = np.zeros((rows, cols), dtype=bool)
    min_eff = min(min_block, n)
    max_eff = min(max_block, n)
    log_lo, log_hi = math.log(aspect_min), math.log(1.0 / aspect_min)

    count = 0
    while count < target:
        area = int(rng.integers(min_eff, max_eff + 1))
        h, w = _block_dims(area, math.exp(rng.uniform(log_lo, log_hi)), rows, cols)
        if not min_eff <= h * w <= max_block:
            continue
        r0 = int(rng.integers(0, rows - h + 1))
        c0 = int(rng.integers(0, cols - w + 1))
        masked[r0:r0 + h, c0:c0 + w] = True
        count = int(masked.sum())
    return PatchMask(grid_dims=(rows, cols), masked=masked)


def _block_dims(area: int, aspect: float, rows: int, cols: int) -> tuple[int, int]:
    """The height and width a drawn area and aspect round to, clipped to the grid."""
    h = min(max(int(round(math.sqrt(area * aspect))), 1), rows)
    w = min(max(int(round(math.sqrt(area / aspect))), 1), cols)
    return h, w


def check_block_shape(rows: int, cols: int, min_block: int, max_block: int,
                      aspect_min: float):
    """Raise ValueError unless some draw of blockwise_mask places a block."""
    min_eff = min(min_block, rows * cols)
    if not _can_place(rows, cols, min_eff, max_block, aspect_min):
        raise ValueError(f"no block of {min_eff}..{max_block} patches with aspect in "
                         f"[{aspect_min}, 1/{aspect_min}] fits a {rows}x{cols} grid")


def _can_place(rows: int, cols: int, min_eff: int, max_block: int, aspect_min: float) -> bool:
    """Whether some draw of blockwise_mask yields an accepted rectangle.

    For a fixed area the rounded height and width change only where
    sqrt(area * aspect) or sqrt(area / aspect) crosses a half integer, so
    one aspect inside each interval between those cuts decides for the
    whole interval.  Testing h / w against [aspect_min, 1 / aspect_min] is
    not enough: rounding also reaches rectangles outside that range.
    """
    lo, hi = aspect_min, 1.0 / aspect_min
    for area in range(min_eff, min(max_block, rows * cols) + 1):
        cuts = [(k + 0.5) ** 2 / area for k in range(1, rows)]
        cuts += [area / (k + 0.5) ** 2 for k in range(1, cols)]
        points = sorted([lo, hi, *(c for c in cuts if lo < c < hi)])
        for a, b in zip(points, points[1:]):
            h, w = _block_dims(area, (a + b) / 2, rows, cols)
            if min_eff <= h * w <= max_block:
                return True
    return False


def span_infill(tokens, rate: float, lam: float, rng: np.random.Generator,
                mask_id: int) -> CorruptedText:
    """Cover Poisson(lam)-length spans until at least ceil(rate * len) tokens
    are covered, then collapse each maximal covered run to a single mask_id.

    Each draw targets one uncovered run (chosen with probability proportional
    to its length): the Poisson length is clamped to [1, run length] and the
    span is placed uniformly among the offsets where it fits inside the run,
    so draws never overlap.
    """
    original = np.asarray(tokens, dtype=np.int64)
    n = original.size
    if n == 0:
        raise ValueError("span_infill on empty token sequence")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")

    target = math.ceil(rate * n)
    covered = np.zeros(n, dtype=bool)
    n_covered = 0
    n_draws = 0
    while n_covered < target:
        open_pos = np.flatnonzero(~covered)
        anchor = int(open_pos[rng.integers(0, open_pos.size)])
        lo = anchor
        while lo > 0 and not covered[lo - 1]:
            lo -= 1
        hi = anchor
        while hi + 1 < n and not covered[hi + 1]:
            hi += 1
        run_len = hi - lo + 1
        length = min(max(int(rng.poisson(lam)), 1), run_len)
        start = lo + int(rng.integers(0, run_len - length + 1))
        covered[start:start + length] = True
        n_covered += length
        n_draws += 1

    out = []
    i = 0
    while i < n:
        if covered[i]:
            out.append(mask_id)
            while i < n and covered[i]:
                i += 1
        else:
            out.append(int(original[i]))
            i += 1
    return CorruptedText(corrupted=np.asarray(out, dtype=np.int64),
                         original=original, covered=n_covered, n_draws=n_draws)
