import numpy as np
import pytest

from duvlg import autodiff as ad
from duvlg.autodiff import Tensor
from duvlg import model as m
from duvlg.codec import ImageGrid, PatchFeaturizer
from duvlg.model import SPECIALS, ModelConfig, N_SPECIALS


TINY = ModelConfig(d_model=8, n_layers_enc=1, n_layers_dec=1, n_heads=2, d_ff=16,
                   text_vocab=6, visual_vocab=6, max_text_len=6, max_patches=4, d_feat=4)


def _tiny_model(seed=0):
    return m.init_model(TINY, seed)


def _patches(n=4, seed=0):
    rng = np.random.default_rng(seed)
    f = PatchFeaturizer(2, TINY.d_feat)
    img = ImageGrid(rng.uniform(0, 1, (2 * 1, 2 * n, 3)))
    return f.featurize_image(img)


def _word_ids(*words):
    return np.array([N_SPECIALS + w for w in words])


def test_encode_text_only_length():
    model = _tiny_model()
    enc = m.encode(model, text_ids=_word_ids(0, 1, 2, 3, 4))
    assert enc.shape == (6, TINY.d_model)  # [IMAGEPAD] + 5


def test_encode_image_only_length():
    model = _tiny_model()
    enc = m.encode(model, patches=_patches(4))
    assert enc.shape == (5, TINY.d_model)  # 4 + [TEXTPAD]


def test_encode_requires_a_modality():
    with pytest.raises(ValueError):
        m.encode(_tiny_model())


def test_encode_rejects_overlength():
    model = _tiny_model()
    with pytest.raises(ValueError):
        m.encode(model, text_ids=_word_ids(*([0] * 7)))
    with pytest.raises(ValueError):
        m.encode(model, patches=_patches(5))


def test_encode_batch_refuses_unequal_patch_counts():
    model = _tiny_model()
    with pytest.raises(ValueError):
        m.encode_batch(model, None, [_patches(4), _patches(3)], None)


def test_fully_masked_patches_ignore_pixels():
    model = _tiny_model()
    mask = np.ones((1, 4), dtype=bool)
    a = m.encode(model, patches=_patches(4, seed=1), patch_mask=mask)
    b = m.encode(model, patches=_patches(4, seed=2), patch_mask=mask)
    assert np.array_equal(a.values, b.values)


def test_decoder_causality_bitwise():
    # row t is the next-token distribution after consuming targets[0..t],
    # so perturbing targets[5] may change rows 5 and 6 but not rows 0..4
    model = _tiny_model()
    enc = m.encode(model, text_ids=_word_ids(0, 1))
    tgt = np.array([SPECIALS.bos, 8, 9, 10, 8, 9, 10])
    logits_a = m.decode_forward(model, tgt, enc)
    tgt2 = tgt.copy()
    tgt2[5] = 12
    logits_b = m.decode_forward(model, tgt2, enc)
    assert np.array_equal(logits_a.values[:5], logits_b.values[:5])
    assert not np.array_equal(logits_a.values[5:], logits_b.values[5:])


def test_decode_single_bos_shape():
    model = _tiny_model()
    enc = m.encode(model, text_ids=_word_ids(0))
    logits = m.decode_forward(model, [SPECIALS.bos], enc)
    assert logits.shape == (1, TINY.head_size)


def _step_against_full_recompute(model, enc, seqs, cache, start, stop, tol=1e-12):
    """Feed seqs[:, start:stop] one column per cached step; each step's
    logits must match the single-example full-recompute decoder."""
    enc_b = ad.reshape(enc, (1,) + enc.shape)
    valid = np.ones((1, enc.shape[0]), dtype=bool)
    for t in range(start, stop):
        step = m.decode_forward_batch(model, seqs[:, t:t + 1], enc_b, valid, cache).values
        assert step.shape == (len(seqs), 1, model.cfg.head_size)
        for row, seq in zip(step, seqs):
            full = m.decode_forward(model, seq[:t + 1], enc).values[-1]
            assert np.abs(row[0] - full).max() <= tol, t


def test_cached_step_matches_full_recompute_text():
    model = _tiny_model(3)
    enc = m.encode(model, text_ids=_word_ids(0, 1, 2))
    seqs = np.array([[SPECIALS.bos, 8, 9, 10, 11, 8, 12, 13],
                     [SPECIALS.bos, 13, 12, 9, 8, 10, 11, 9]])
    with ad.no_grad():
        cache = m.DecoderCache(model, ad.reshape(enc, (1,) + enc.shape), TINY.max_dec_len)
        _step_against_full_recompute(model, enc, seqs, cache, 0, seqs.shape[1])
    assert cache.length == TINY.max_dec_len
    with pytest.raises(ValueError, match="max decoder length"):
        m.decode_forward_batch(model, seqs[:, :1], ad.reshape(enc, (1,) + enc.shape),
                               np.ones((1, enc.shape[0]), dtype=bool), cache)


def test_cached_step_matches_full_recompute_image_prefix():
    cfg = ModelConfig()
    model = m.init_model(cfg, 1)
    enc = m.encode(model, text_ids=_word_ids(0, 4, 2, 9))
    rng = np.random.default_rng(0)
    visual = m.visual_to_unified(rng.integers(0, cfg.visual_vocab, (2, cfg.max_patches)), cfg)
    seqs = np.concatenate([np.full((2, 1), SPECIALS.boi), visual], axis=1)  # 65 positions
    with ad.no_grad():
        cache = m.DecoderCache(model, ad.reshape(enc, (1,) + enc.shape), seqs.shape[1])
        _step_against_full_recompute(model, enc, seqs, cache, 0, seqs.shape[1])


def test_cached_step_after_reorder_matches_full_recompute():
    model = _tiny_model(4)
    enc = m.encode(model, text_ids=_word_ids(3, 1))
    first = np.array([[SPECIALS.bos, 8, 9, 10],
                      [SPECIALS.bos, 11, 12, 13],
                      [SPECIALS.bos, 13, 8, 8]])
    with ad.no_grad():
        cache = m.DecoderCache(model, ad.reshape(enc, (1,) + enc.shape), 7)
        _step_against_full_recompute(model, enc, first, cache, 0, 4)
        rows = [2, 0, 0]  # row 1 dropped, row 0 duplicated, as beam search does
        cache.reorder(rows)
        seqs = np.concatenate([first[rows], [[9, 10, 11], [12, 8, 9], [8, 8, 13]]], axis=1)
        _step_against_full_recompute(model, enc, seqs, cache, 4, 7)


def test_cached_step_past_capacity_is_refused_and_changes_nothing():
    model = _tiny_model(5)
    enc = m.encode(model, text_ids=_word_ids(2, 4))
    enc_b, valid = ad.reshape(enc, (1,) + enc.shape), np.ones((1, enc.shape[0]), dtype=bool)
    seqs = np.array([[SPECIALS.bos, 8, 9, 10], [SPECIALS.bos, 11, 12, 13]])
    with ad.no_grad():
        cache = m.DecoderCache(model, enc_b, 3)
        for t in range(3):
            m.decode_forward_batch(model, seqs[:, t:t + 1], enc_b, valid, cache)
        filled = cache.k.copy(), cache.v.copy()
        with pytest.raises(ValueError, match="4 positions exceeds decoder cache capacity 3"):
            m.decode_forward_batch(model, seqs[:, 3:], enc_b, valid, cache)
    assert cache.length == 3
    assert np.array_equal(cache.k, filled[0]) and np.array_equal(cache.v, filled[1])


def test_decode_rejects_out_of_range_ids():
    model = _tiny_model()
    enc = m.encode(model, text_ids=_word_ids(0))
    with pytest.raises(ValueError):
        m.decode_forward(model, [TINY.head_size], enc)


def test_weight_tying_gradient_matches_fd():
    model = _tiny_model()
    patches = _patches(2)
    text = _word_ids(0, 1, 2)
    tgt = np.array([SPECIALS.bos, N_SPECIALS + 3, N_SPECIALS + 4, SPECIALS.eos])

    def loss():
        enc = m.encode(model, text_ids=text, patches=patches)
        logits = m.decode_forward(model, tgt[:-1], enc)
        return ad.cross_entropy_logits(logits, tgt[1:])

    error = ad.grad_check(loss, model.embed)
    assert error < 1e-4, error


def _mixed_ids(seed=0):
    # every unified id, specials, words and visual tokens interleaved
    rng = np.random.default_rng(seed)
    return rng.permutation(np.concatenate([np.arange(TINY.head_size),
                                           rng.integers(0, TINY.head_size, 20)]))


def test_gather_rows_any_id_shape_and_range():
    model = _tiny_model()
    ids = _mixed_ids()[:12]
    flat = ad.gather_rows(model.embed, ids).values
    assert np.array_equal(ad.gather_rows(model.embed, ids.reshape(3, 4)).values,
                          flat.reshape(3, 4, TINY.d_model))
    for bad in (-1, TINY.head_size):
        with pytest.raises(ad.ShapeError, match="out of range"):
            ad.gather_rows(model.embed, np.array([0, bad]))


def test_gather_rows_gradcheck():
    model = _tiny_model(3)
    ids = _mixed_ids(4).reshape(5, -1)
    w = Tensor(np.random.default_rng(5).normal(size=ids.shape + (TINY.d_model,)))

    def loss():
        return ad.sum_all(ad.mul(ad.gelu(ad.gather_rows(model.embed, ids)), w))

    assert ad.grad_check(loss, model.embed) < 1e-6


def test_tying_is_shared_storage():
    model = _tiny_model()
    word = N_SPECIALS + 2
    enc_before = m.encode(model, text_ids=np.array([word]))
    logits_before = m.decode_forward(model, [SPECIALS.bos],
                                     m.encode(model, text_ids=_word_ids(0)))
    model.embed.values[word] += 0.5
    enc_after = m.encode(model, text_ids=np.array([word]))
    logits_after = m.decode_forward(model, [SPECIALS.bos],
                                    m.encode(model, text_ids=_word_ids(0)))
    assert not np.array_equal(enc_before.values, enc_after.values)
    assert not np.array_equal(logits_before.values[:, word], logits_after.values[:, word])


def test_init_deterministic():
    a = m.init_model(TINY, 123)
    b = m.init_model(TINY, 123)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.values, pb.values)


def test_parameter_count_toy_formula():
    cfg = ModelConfig()  # toy defaults
    d, f = 64, 128
    # hand-derived: embeddings + projections + positions + segments + layers + norms
    embeddings = (17 + 8 + 64) * d
    proj = 32 * d + d
    positions = (24 + 64 + 66) * d
    segments = 2 * d
    enc = 2 * (4 * d * d + 2 * d * f + 9 * d + f)
    dec = 2 * (8 * d * d + 2 * d * f + 15 * d + f)
    finals = 4 * d
    expected = embeddings + proj + positions + segments + enc + dec + finals
    assert expected == 185472
    assert m.parameter_count(cfg) == expected
    model = m.init_model(cfg, 0)
    assert sum(p.size for _, p in model.named_parameters()) == expected


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ModelConfig(d_model=63, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(n_layers_enc=0)


def test_example_order_independence():
    model = _tiny_model()
    pa, pb = _patches(3, seed=5), _patches(4, seed=6)
    first = m.encode(model, patches=pa).values.copy()
    m.encode(model, patches=pb)
    again = m.encode(model, patches=pa).values
    assert np.array_equal(first, again)


def test_visual_unified_id_roundtrip():
    vis = np.array([0, 3, 5])
    uni = m.visual_to_unified(vis, TINY)
    assert uni.tolist() == [14, 17, 19]
    assert np.array_equal(m.unified_to_visual(uni, TINY), vis)
