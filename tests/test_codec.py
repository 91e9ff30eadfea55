import re

import numpy as np
import pytest

from duvlg import codec
from duvlg.codec import ImageGrid, PatchFeaturizer, VisualCodebook


@pytest.fixture(scope="module")
def cb():
    return VisualCodebook.build(K=64, d_code=16, patch_size=4)


def _image_from_tokens(cb, tokens, grid_dims):
    return codec.decode_tokens(np.asarray(tokens), cb, grid_dims)


def test_extract_patches_order():
    px = np.zeros((4, 4, 3))
    for r in range(4):
        for c in range(4):
            px[r, c, 0] = 10 * r + c
    img = ImageGrid(np.clip(px / 100.0, 0, 1))
    patches = codec.extract_patches(img, 2)
    assert patches.shape == (4, 12)
    # row-major patch order: (0,0),(0,1),(1,0),(1,1)
    firsts = patches[:, 0] * 100
    assert np.allclose(firsts, [0, 2, 20, 22])


def test_extract_patches_is_lossless():
    rng = np.random.default_rng(0)
    img = ImageGrid(rng.uniform(0, 1, (8, 12, 3)))
    patches = codec.extract_patches(img, 4)
    back = codec.assemble_patches(patches, (2, 3), 4)
    assert np.array_equal(back.pixels, img.pixels)


def test_patch_counts_paper_scale():
    img224 = ImageGrid(np.zeros((224, 224, 3)))
    img384 = ImageGrid(np.zeros((384, 384, 3)))
    assert codec.extract_patches(img224, 16).shape[0] == 196
    assert codec.extract_patches(img384, 16).shape[0] == 576


def test_extract_patches_rejects_indivisible():
    img = ImageGrid(np.zeros((6, 8, 3)))
    with pytest.raises(ValueError, match="not divisible by patch size 4"):
        codec.extract_patches(img, 4)
    with pytest.raises(ValueError, match="not divisible by patch size 4"):
        PatchFeaturizer(4, 8).featurize_image(img)


def test_featurizer_deterministic():
    f1 = PatchFeaturizer(4, 32)
    f2 = PatchFeaturizer(4, 32)
    rng = np.random.default_rng(1)
    patches = rng.uniform(0, 1, (5, 48))
    a = f1.featurize(patches)
    b = f2.featurize(patches)
    assert np.array_equal(a, b)


def test_featurizer_zero_image_rows_equal():
    f = PatchFeaturizer(4, 32)
    rows = f.featurize(np.zeros((6, 48)))
    assert np.allclose(rows, np.tanh(f.bias))
    assert np.array_equal(rows[0], rows[5])


def test_featurizer_frozen_no_grad():
    f = PatchFeaturizer(4, 32)
    # a plain array has no gradient slot, so no graph can train it
    assert isinstance(f.featurize(np.zeros((2, 48))), np.ndarray)


def test_codebook_rows_pairwise_distinct(cb):
    e = cb.embed
    d = np.linalg.norm(e[:, None, :] - e[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 0.0
    assert isinstance(cb.embed, np.ndarray)


def test_render_stays_inside_unit_range(cb):
    patches = cb.render(np.arange(cb.K))
    assert patches.min() >= 0.0 and patches.max() <= 1.0


def test_single_token_roundtrip_all_ids(cb):
    for j in range(cb.K):
        img = _image_from_tokens(cb, [j], (1, 1))
        assert codec.tokenize_image(img, cb).tolist() == [j]


def test_random_grid_roundtrip(cb):
    rng = np.random.default_rng(2)
    for _ in range(25):
        toks = rng.integers(0, cb.K, 64)
        img = _image_from_tokens(cb, toks, (8, 8))
        assert np.array_equal(codec.tokenize_image(img, cb), toks)


def test_tokenize_tie_breaks_to_lowest_id():
    cb_small = VisualCodebook.build(K=8, d_code=4, patch_size=2)
    e = cb_small.embed.copy()
    v = np.array([0.1, 0.2, -0.1, 0.3])
    e[3] = v
    e[7] = -v  # exact mirror: both distances to the zero code are bitwise equal
    for i in (0, 1, 2, 4, 5, 6):
        e[i] = np.full(4, 2.0 + i)
    tied = VisualCodebook(K=8, d_code=4, patch_size=2,
                          embed=e, render_map=cb_small.render_map)
    img = ImageGrid(np.full((2, 2, 3), 0.5))  # projects to the zero code vector
    assert codec.tokenize_image(img, tied)[0] == 3


def test_decode_rejects_bad_ids_and_lengths(cb):
    with pytest.raises(codec.VocabularyError):
        codec.decode_tokens(np.array([cb.K]), cb, (1, 1))
    with pytest.raises(ValueError):
        codec.decode_tokens(np.array([1, 2, 3]), cb, (1, 2))


def test_two_tokens_render_differently(cb):
    a = _image_from_tokens(cb, [0], (1, 1))
    b = _image_from_tokens(cb, [1], (1, 1))
    assert not np.array_equal(a.pixels, b.pixels)


def test_token_count_equals_patch_count(cb):
    rng = np.random.default_rng(3)
    img = ImageGrid(rng.uniform(0, 1, (16, 24, 3)))
    f = PatchFeaturizer(4, 32)
    feats = f.featurize_image(img)
    toks = codec.tokenize_image(img, cb)
    assert len(toks) == feats.shape[0] == 24


def test_image_file_roundtrip(tmp_path, cb):
    rng = np.random.default_rng(4)
    img = ImageGrid(rng.uniform(0, 1, (8, 8, 3)))
    path = tmp_path / "img.duvlg"
    codec.save_image(img, path)
    back = codec.load_image(path)
    assert np.array_equal(back.pixels, img.pixels)
    assert open(path).readline().startswith("DUVLG-IMG v1 8 8")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_image_grid_rejects_non_finite(bad):
    px = np.full((4, 4, 3), 0.5)
    px[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ImageGrid(px)


@pytest.mark.parametrize("shape", [(0, 0, 3), (0, 4, 3), (4, 0, 3)])
def test_image_grid_rejects_empty(shape):
    with pytest.raises(ValueError, match="H, W >= 1"):
        ImageGrid(np.zeros(shape))


@pytest.mark.parametrize("dims", ["-1 -3", "0 4", "4 0", "x 3", "2.0 2", "+2 2"])
def test_image_file_rejects_bad_header_dims(tmp_path, dims):
    path = tmp_path / "bad.duvlg"
    path.write_text(f"DUVLG-IMG v1 {dims}\n" + " ".join(["0.5"] * 12) + "\n")
    message = f"{path}: header needs integer H, W >= 1, got {dims}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        codec.load_image(path)


def test_image_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.duvlg"
    path.write_text("NOPE v9 2 2\n0 0 0\n")
    with pytest.raises(ValueError):
        codec.load_image(path)
    path.write_text("DUVLG-IMG v1 2 2\n0 0 0\n")
    with pytest.raises(ValueError):
        codec.load_image(path)
