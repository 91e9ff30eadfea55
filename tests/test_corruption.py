import math

import numpy as np
import pytest

from duvlg.corruption import _can_place, blockwise_mask, span_infill

MASK = 3


def _has_solid_rect_of_area(masked, min_area):
    """Summed-area search for any all-True rectangle with h*w >= min_area."""
    rows, cols = masked.shape
    sat = masked.astype(int).cumsum(0).cumsum(1)
    padded = np.zeros((rows + 1, cols + 1), dtype=int)
    padded[1:, 1:] = sat
    for h in range(1, rows + 1):
        for w in range(1, cols + 1):
            if h * w < min_area:
                continue
            block = (padded[h:, w:] - padded[:-h, w:] - padded[h:, :-w] + padded[:-h, :-w])
            if (block == h * w).any():
                return True
    return False


def test_blockwise_rate_zero_empty():
    mask = blockwise_mask(8, 8, 0.0, np.random.default_rng(0))
    assert mask.count == 0


def test_blockwise_rate_one_full():
    mask = blockwise_mask(8, 8, 1.0, np.random.default_rng(0))
    assert mask.count == 64


def test_blockwise_count_band_1000_trials():
    # 14x14, rate 0.5: target 98, overshoot < max_block -> [98, 114]
    counts = []
    for seed in range(1000):
        mask = blockwise_mask(14, 14, 0.5, np.random.default_rng(seed))
        counts.append(mask.count)
    assert min(counts) >= 98
    assert max(counts) <= 114


def test_blockwise_fraction_invariant_random_grids():
    rng = np.random.default_rng(42)
    for _ in range(200):
        rows = int(rng.integers(2, 17))
        cols = int(rng.integers(2, 17))
        rate = float(rng.uniform(0, 1))
        mask = blockwise_mask(rows, cols, rate, np.random.default_rng(int(rng.integers(1 << 30))))
        n = rows * cols
        assert math.ceil(rate * n) <= mask.count <= math.ceil(rate * n) + 16


def test_blockwise_contains_solid_block():
    for seed in range(50):
        mask = blockwise_mask(14, 14, 0.3, np.random.default_rng(seed), min_block=4)
        assert _has_solid_rect_of_area(mask.masked, 4)


def test_blockwise_deterministic():
    a = blockwise_mask(10, 10, 0.4, np.random.default_rng(7))
    b = blockwise_mask(10, 10, 0.4, np.random.default_rng(7))
    assert np.array_equal(a.masked, b.masked)


@pytest.mark.parametrize("rows, cols, min_block, max_block", [
    (8, 8, 5, 5),  # only 1x5 has 5 patches, and its aspect 0.2 is below 0.3
    (4, 4, 5, 5),  # 1x5 does not even fit
    (2, 2, 3, 3),  # 1x3 does not fit; clipping gives 1x2 or 2x2
])
def test_blockwise_unplaceable_block_raises_before_drawing(rows, cols, min_block, max_block):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="no block of"):
        blockwise_mask(rows, cols, 0.5, rng, min_block=min_block, max_block=max_block)
    assert rng.bit_generator.state == state


def test_blockwise_block_reached_only_by_rounding_is_placed():
    # 1x2 has aspect 0.5 < aspect_min, yet area 2 at aspect 0.7 rounds to 1x2
    mask = blockwise_mask(8, 8, 0.5, np.random.default_rng(0), min_block=2, max_block=2,
                          aspect_min=0.7)
    assert mask.count >= 32


def _placeable_by_sampling(rows, cols, min_eff, max_block, aspect_min):
    """Reference for _can_place: every area at 4001 aspects, rounded and
    clipped as blockwise_mask does (np.rint rounds half to even, as round)."""
    aspect = np.exp(np.linspace(np.log(aspect_min), -np.log(aspect_min), 4001))
    area = np.arange(min_eff, min(max_block, rows * cols) + 1)[:, None]
    h = np.clip(np.rint(np.sqrt(area * aspect)), 1, rows)
    w = np.clip(np.rint(np.sqrt(area / aspect)), 1, cols)
    return bool(((min_eff <= h * w) & (h * w <= max_block)).any())


def test_can_place_matches_dense_sampling():
    unplaceable = 0
    for rows, cols in [(8, 8), (4, 4), (2, 8), (1, 5), (3, 7)]:
        for min_block in range(1, 12):
            min_eff = min(min_block, rows * cols)
            for max_block in range(min_block, 16):
                for aspect_min in (0.1, 0.3, 0.5, 0.7, 1.0):
                    expect = _placeable_by_sampling(rows, cols, min_eff, max_block, aspect_min)
                    assert _can_place(rows, cols, min_eff, max_block, aspect_min) == expect, \
                        (rows, cols, min_block, max_block, aspect_min)
                    unplaceable += not expect
    assert unplaceable > 0


def test_span_rate_zero_identity():
    out = span_infill([5, 6, 7], 0.0, 3.0, np.random.default_rng(0), mask_id=MASK)
    assert out.corrupted.tolist() == [5, 6, 7]
    assert out.covered == 0


def test_span_single_token_full_rate():
    out = span_infill([9], 1.0, 3.0, np.random.default_rng(0), mask_id=MASK)
    assert out.corrupted.tolist() == [MASK]
    assert out.covered == 1


def test_span_empty_input_errors():
    with pytest.raises(ValueError):
        span_infill([], 0.5, 3.0, np.random.default_rng(0), mask_id=MASK)


def test_span_monte_carlo_band():
    # length 1000, rate 0.5, lambda 3: coverage in [0.5, 0.52] on every trial;
    # realized mean span (covered / draws) in [2.7, 3.4] over the 200 trials
    tokens = list(range(10, 1010))
    coverages, mean_spans = [], []
    for seed in range(200):
        out = span_infill(tokens, 0.5, 3.0, np.random.default_rng(seed), mask_id=MASK)
        coverages.append(out.covered / 1000.0)
        mean_spans.append(out.covered / out.n_draws)
    assert min(coverages) >= 0.5
    assert max(coverages) <= 0.52
    mean_span = float(np.mean(mean_spans))
    assert 2.7 <= mean_span <= 3.4


def test_span_structure_invariants():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        rate = float(rng.uniform(0, 1))
        tokens = rng.integers(10, 50, n)
        out = span_infill(tokens, rate, 3.0, np.random.default_rng(int(rng.integers(1 << 30))), mask_id=MASK)
        n_spans = int(np.sum(out.corrupted == MASK))
        assert out.covered >= math.ceil(rate * n)
        assert len(out.corrupted) == n - out.covered + n_spans
        # collapsed spans are maximal: no two adjacent mask tokens
        adjacent = [(a, b) for a, b in zip(out.corrupted, out.corrupted[1:]) if a == b == MASK]
        assert not adjacent
        # uncovered tokens keep their order and values
        kept = [t for t in out.corrupted if t != MASK]
        assert len(kept) == n - out.covered


def test_span_deterministic():
    tokens = list(range(30))
    a = span_infill(tokens, 0.5, 3.0, np.random.default_rng(5), mask_id=MASK)
    b = span_infill(tokens, 0.5, 3.0, np.random.default_rng(5), mask_id=MASK)
    assert np.array_equal(a.corrupted, b.corrupted)
