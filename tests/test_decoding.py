import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from duvlg import config
from duvlg import decoding as dec
from duvlg import model as mdl
from duvlg.codec import PatchFeaturizer, VisualCodebook
from duvlg.data import TextVocab, gen_dataset
from duvlg.decoding import DecodeConfig, beam_search, nucleus_filter, top_k_filter
from duvlg.model import SPECIALS, ModelConfig, N_SPECIALS


def _tiny(seed, text_vocab=3):
    cfg = ModelConfig(d_model=8, n_layers_enc=1, n_layers_dec=1, n_heads=2, d_ff=16,
                      text_vocab=text_vocab, visual_vocab=4, max_text_len=8,
                      max_patches=4, d_feat=4)
    return mdl.init_model(cfg, seed)


def _enc(model, words=(0, 1)):
    ids = np.array([N_SPECIALS + w for w in words])
    return mdl.encode(model, text_ids=ids)


def _full_logprobs(model, enc, prefix, candidates, temperature=1.0):
    """Full-recompute oracle for one decode step: run the whole prefix
    through the single-example decoder and renormalize its last row."""
    logits = mdl.decode_forward(model, np.asarray(prefix, dtype=np.int64), enc)
    row = logits.values[-1][candidates] / temperature
    row = row - row.max()
    return row - np.log(np.exp(row).sum())


def _reference_pick(lp, cfg, rng) -> int:
    """Per-row pick through the filters and ``rng.choice``: the simple path
    the batched ``dec._pick`` must reproduce bit for bit."""
    if cfg.strategy == "greedy":
        return int(np.argmax(lp))
    probs = np.exp(lp)
    probs = probs / probs.sum()
    if cfg.strategy == "nucleus":
        support, renorm = nucleus_filter(probs, cfg.top_p)
    else:
        support, renorm = top_k_filter(probs, cfg.k)
    return int(rng.choice(support, p=renorm))


def _exhaustive_best(model, enc, cfg):
    """Enumerate every candidate sequence and score it like the search does."""
    words = list(dec.allowed_ids(model, "text"))
    candidates = np.concatenate(([SPECIALS.eos], words))

    def logp(prefix):
        return _full_logprobs(model, enc, prefix, candidates, cfg.temperature)

    best = None
    for length in range(cfg.max_len + 1):
        for tokens in itertools.product(words, repeat=length):
            prefix = (SPECIALS.bos,) + tokens
            total = 0.0
            for t, tok in enumerate(tokens):
                lp = logp((SPECIALS.bos,) + tokens[:t])
                total += lp[1 + words.index(tok)]
            if length < cfg.max_len:  # terminated by eos
                total += logp(prefix)[0]
                score = total / (length + 1) ** cfg.length_norm
            else:  # truncated at max_len
                score = total / length**cfg.length_norm
            key = (-score, tuple(int(t) for t in tokens))
            if best is None or key < best[0]:
                best = (key, np.asarray(tokens, dtype=np.int64), score)
    return best[1], best[2]


def test_beam_one_equals_greedy():
    model = _tiny(0)
    enc = _enc(model)
    cfg = DecodeConfig(beam_size=1, max_len=5)
    tokens, _ = beam_search(model, enc, cfg)
    # hand-rolled greedy over the same candidate set
    candidates = np.concatenate(([SPECIALS.eos], dec.allowed_ids(model, "text")))
    out, prefix = [], [SPECIALS.bos]
    for _ in range(5):
        lp = _full_logprobs(model, enc, prefix, candidates)
        pick = int(candidates[int(np.argmax(lp))])
        if pick == SPECIALS.eos:
            break
        out.append(pick)
        prefix.append(pick)
    assert tokens.tolist() == out


@pytest.mark.parametrize("seed", range(10))
def test_beam_matches_exhaustive_tiny_models(seed):
    model = _tiny(seed)
    enc = _enc(model, (seed % 3,))
    cfg = DecodeConfig(beam_size=4**3, max_len=3)
    tokens, score = beam_search(model, enc, cfg)
    ref_tokens, ref_score = _exhaustive_best(model, enc, cfg)
    assert tokens.tolist() == ref_tokens.tolist()
    assert score == pytest.approx(ref_score, abs=1e-12)


def test_beam_uniform_ties_lexicographic(monkeypatch):
    model = _tiny(1)
    enc = _enc(model)

    def uniform(model_, enc_, enc_valid, cache, tokens, candidates, temperature):
        return np.full((len(tokens), len(candidates)), -np.log(len(candidates)))

    monkeypatch.setattr(dec, "_step_logprobs", uniform)
    tokens, _ = beam_search(model, enc, DecodeConfig(beam_size=8, max_len=3))
    assert tokens.tolist() == []  # empty sequence is lexicographically smallest


def test_beam_score_at_least_greedy():
    for seed in range(5):
        model = _tiny(seed, text_vocab=5)
        enc = _enc(model)
        g_tokens, g_score = beam_search(model, enc, DecodeConfig(beam_size=1, max_len=6))
        b_tokens, b_score = beam_search(model, enc, DecodeConfig(beam_size=5, max_len=6))
        assert b_score >= g_score - 1e-12


def test_nucleus_filter_support_and_ratios():
    support, renorm = nucleus_filter(np.array([0.5, 0.3, 0.2]), 0.7)
    assert support.tolist() == [0, 1]
    assert renorm.tolist() == pytest.approx([5 / 8, 3 / 8])


def test_nucleus_filter_extremes():
    probs = np.array([0.5, 0.3, 0.2])
    support, _ = nucleus_filter(probs, 1.0)
    assert sorted(support.tolist()) == [0, 1, 2]
    support, renorm = nucleus_filter(probs, 1e-12)
    assert support.tolist() == [0]
    assert renorm.tolist() == [1.0]


def test_nucleus_chi_square_10k():
    rng = np.random.default_rng(0)
    probs = np.array([0.5, 0.3, 0.2])
    support, renorm = nucleus_filter(probs, 0.7)
    draws = rng.choice(support, size=10000, p=renorm)
    counts = np.bincount(draws, minlength=3)
    assert counts[2] == 0  # outside the nucleus
    result = stats.chisquare(counts[:2], f_exp=np.array([5 / 8, 3 / 8]) * 10000)
    assert result.pvalue > 0.001


def test_top_k_filter():
    probs = np.array([0.5, 0.3, 0.2])
    support, _ = top_k_filter(probs, 2)
    assert support.tolist() == [0, 1]  # token 2 never sampled
    support, renorm = top_k_filter(probs, 50)
    assert sorted(support.tolist()) == [0, 1, 2]
    assert renorm.sum() == pytest.approx(1.0)
    support, renorm = top_k_filter(probs, 1)
    assert support.tolist() == [0] and renorm.tolist() == [1.0]


def test_top_k_chi_square_10k():
    rng = np.random.default_rng(1)
    probs = np.array([0.4, 0.35, 0.15, 0.1])
    support, renorm = top_k_filter(probs, 2)
    draws = rng.choice(support, size=10000, p=renorm)
    counts = np.bincount(draws, minlength=4)
    assert counts[2] == counts[3] == 0
    result = stats.chisquare(counts[:2], f_exp=renorm * 10000)
    assert result.pvalue > 0.001


def test_samplers_run_and_respect_modality():
    model = _tiny(2, text_vocab=5)
    enc = _enc(model)
    cfg = DecodeConfig(max_len=6, top_p=0.9, k=3)
    rng = np.random.default_rng(0)
    text_range = set(range(N_SPECIALS, N_SPECIALS + 5))
    candidates = np.concatenate(([SPECIALS.eos], dec.allowed_ids(model, "text")))
    for _ in range(10):
        for strategy in ("nucleus", "topk"):
            out = dec._sample(model, enc, replace(cfg, strategy=strategy), [rng], SPECIALS.bos,
                              candidates, cfg.max_len, stop=SPECIALS.eos)
            assert out[0, 0] == SPECIALS.bos and set(out[0, 1:].tolist()) <= text_range


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _pick_cases():
    rng = np.random.default_rng(8)
    peaked = np.zeros((3, 6))
    peaked[:, 2] = 60.0  # one candidate holds all but ~1e-26 of the mass
    return {
        "random": (rng.normal(size=(16, 64)) * 2.0, {}),
        "ties": (np.round(rng.normal(size=(8, 40))), {}),
        "uniform": (np.zeros((4, 9)), {}),
        "top_p_one": (rng.normal(size=(6, 30)), {"top_p": 1.0}),
        "support_of_one": (peaked, {"top_p": 0.5, "k": 1}),
        "k_at_least_size": (rng.normal(size=(5, 8)), {"k": 50}),
        "one_row": (rng.normal(size=(1, 89)) * 3.0, {"top_p": 0.7, "k": 3}),
        "one_candidate": (rng.normal(size=(3, 1)), {}),
    }


@pytest.mark.parametrize("strategy", ["nucleus", "topk", "greedy"])
@pytest.mark.parametrize("case", list(_pick_cases()))
def test_pick_matches_per_row_reference(case, strategy):
    logits, overrides = _pick_cases()[case]
    lp = _log_softmax(logits)
    cfg = DecodeConfig(strategy=strategy, **{"top_p": 0.9, "k": 5, **overrides})
    for seed in range(5):
        batched = np.random.default_rng(seed).spawn(len(lp))
        per_row = np.random.default_rng(seed).spawn(len(lp))
        got = dec._pick(lp, cfg, batched)
        want = [_reference_pick(row, cfg, child) for row, child in zip(lp, per_row)]
        assert got.tolist() == want
        # one draw per sampled row, none for greedy: the streams stay in step
        assert [c.bit_generator.state for c in batched] == [c.bit_generator.state for c in per_row]


def test_pick_rejects_beam():
    with pytest.raises(ValueError, match="not a sampling strategy"):
        dec._pick(np.zeros((1, 3)), DecodeConfig(strategy="beam"), [np.random.default_rng(0)])


@pytest.fixture(scope="module")
def gen_world():
    cfg = ModelConfig(d_model=16, n_layers_enc=1, n_layers_dec=1, n_heads=2, d_ff=32,
                      text_vocab=17, visual_vocab=16, max_text_len=24, max_patches=16,
                      d_feat=8)
    cb = VisualCodebook.build(K=16, d_code=8, patch_size=4)
    feat = PatchFeaturizer(4, cfg.d_feat)
    vocab = TextVocab()
    model = mdl.init_model(cfg, 0, featurizer=feat, codebook=cb)
    examples = gen_dataset(4, 0, cb, (4, 4), vocab)
    return model, vocab, examples


def test_generate_image_protocol(gen_world):
    model, vocab, examples = gen_world
    cfg = DecodeConfig(strategy="nucleus", n_samples=16, top_p=0.9)
    assert cfg.n_samples == 16  # default matches sampling protocol
    seqs = dec.generate_image_tokens(model, examples[0].caption, cfg,
                                     np.random.default_rng(0), n_patches=16)
    assert len(seqs) == 16
    split = N_SPECIALS + model.cfg.text_vocab
    for seq in seqs:
        assert seq[0] == SPECIALS.boi and seq[-1] == SPECIALS.eoi
        body = seq[1:-1]
        assert len(body) == 16
        assert (body >= split).all()  # no text ids inside the image span


def test_generate_image_decodes(gen_world):
    model, vocab, examples = gen_world
    cfg = DecodeConfig(strategy="nucleus", n_samples=3)
    images = dec.generate_image(model, examples[0].caption, cfg,
                                np.random.default_rng(0), (4, 4))
    assert len(images) == 3
    for img in images:
        assert img.pixels.shape == (16, 16, 3)


def test_generate_image_deterministic(gen_world):
    model, vocab, examples = gen_world
    cfg = DecodeConfig(strategy="nucleus", n_samples=4)
    a = dec.generate_image(model, examples[0].caption, cfg, np.random.default_rng(9), (4, 4))
    b = dec.generate_image(model, examples[0].caption, cfg, np.random.default_rng(9), (4, 4))
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.pixels, ib.pixels)


def _oracle_image_tokens(model, caption, cfg, rng, n_patches):
    """Per-sample full-recompute sampler with the same pick rule and streams."""
    enc = mdl.encode(model, text_ids=caption)
    visual = dec.allowed_ids(model, "image")
    out = []
    for child in rng.spawn(cfg.n_samples):
        prefix = [SPECIALS.boi]
        for _ in range(n_patches):
            lp = _full_logprobs(model, enc, prefix, visual, cfg.temperature)
            prefix.append(int(visual[_reference_pick(lp, cfg, child)]))
        out.append(prefix + [SPECIALS.eoi])
    return out


@pytest.mark.parametrize("strategy,seed", [("nucleus", 0), ("nucleus", 1), ("topk", 2),
                                           ("topk", 3)])
def test_generate_image_tokens_match_full_recompute(gen_world, strategy, seed):
    model, vocab, examples = gen_world
    cfg = DecodeConfig(strategy=strategy, n_samples=4, top_p=0.8, k=5, temperature=0.7)
    caption = examples[seed].caption
    seqs = dec.generate_image_tokens(model, caption, cfg, np.random.default_rng(seed), 16)
    ref = _oracle_image_tokens(model, caption, cfg, np.random.default_rng(seed), 16)
    assert [s.tolist() for s in seqs] == ref


def test_sample_text_matches_full_recompute(gen_world):
    model, vocab, examples = gen_world
    cfg = DecodeConfig(strategy="nucleus", max_len=8, top_p=0.95, temperature=2.0)
    enc = mdl.encode(model, patches=model.featurizer.featurize_image(examples[1].image))
    candidates = np.concatenate(([SPECIALS.eos], dec.allowed_ids(model, "text")))
    for seed in range(3):
        got = dec.caption_image(model, examples[1].image, cfg, np.random.default_rng(seed))
        rng, prefix = np.random.default_rng(seed), [SPECIALS.bos]
        for _ in range(cfg.max_len):
            lp = _full_logprobs(model, enc, prefix, candidates, cfg.temperature)
            pick = int(candidates[_reference_pick(lp, cfg, rng)])
            if pick == SPECIALS.eos:
                break
            prefix.append(pick)
        assert got.tolist() == prefix[1:]


# sha256 of the [16 x 66] int64 samples for RunConfig(seed=4), the first
# caption of gen_dataset(1, 4), rng seed 21, as decoded by the per-row pick
_PINNED_IMAGE_TOKENS = {
    "nucleus": "fbeb0841b1a42678431baf175b7b9c2523f5e714a3850765f5f8b6cbb1e15fa7",
    "topk": "d726011443d0d0de1cfe8b01fd827176440c6cc5d68549dc1590eef0e4377839",
}


@pytest.mark.parametrize("strategy", list(_PINNED_IMAGE_TOKENS))
def test_generate_image_tokens_pinned(strategy):
    run_cfg = config.RunConfig(seed=4)
    model, vocab = config.build_model(run_cfg)
    caption = gen_dataset(1, 4, model.codebook, run_cfg.grid_dims(), vocab)[0].caption
    seqs = np.stack(dec.generate_image_tokens(model, caption,
                                              config.to_decode_config(run_cfg, strategy, "image"),
                                              np.random.default_rng(21), 64))
    assert seqs.shape == (16, 66)
    assert hashlib.sha256(seqs.astype("<i8").tobytes()).hexdigest() == _PINNED_IMAGE_TOKENS[strategy]


def _never_pick(*_args):
    raise AssertionError("a token was picked from non-finite log-probabilities")


@pytest.mark.parametrize("modality", ["text", "image"])
@pytest.mark.parametrize("strategy", ["beam", "greedy", "nucleus", "topk"])
def test_non_finite_logprobs_fail_before_any_pick(gen_world, monkeypatch, strategy, modality):
    model, vocab, examples = gen_world
    # one NaN in the last row of the head block this modality decodes into
    table = model.text_embed if modality == "text" else model.visual_embed_dec
    poisoned = table.values.copy()
    poisoned[-1, 0] = np.nan
    monkeypatch.setattr(table, "values", poisoned)
    monkeypatch.setattr(dec, "_pick", _never_pick)
    cfg = DecodeConfig(strategy=strategy, modality=modality, max_len=4, n_samples=3)
    with pytest.raises(ValueError, match="log-probabilities are not all finite"):
        if modality == "text":
            dec.caption_image(model, examples[0].image, cfg, np.random.default_rng(0))
        elif strategy == "beam":
            beam_search(model, mdl.encode(model, text_ids=examples[0].caption), cfg)
        else:
            dec.generate_image_tokens(model, examples[0].caption, cfg,
                                      np.random.default_rng(0), 4)


def _no_encoding(*_args, **_kwargs):
    raise AssertionError("length checks must run before any encoding")


def test_generate_image_checks_patch_count_first(gen_world, monkeypatch):
    model, vocab, examples = gen_world
    monkeypatch.setattr(dec, "encode", _no_encoding)
    with pytest.raises(ValueError, match="17 patches exceeds max_patches 16"):
        dec.generate_image_tokens(model, examples[0].caption,
                                  DecodeConfig(strategy="nucleus", n_samples=2),
                                  np.random.default_rng(0), 17)


@pytest.mark.parametrize("strategy", ["beam", "greedy", "nucleus", "topk"])
def test_text_decoders_check_length_first(gen_world, monkeypatch, strategy):
    model, vocab, examples = gen_world
    enc = mdl.encode(model, text_ids=examples[0].caption)
    cfg = DecodeConfig(strategy=strategy, max_len=model.cfg.max_dec_len)
    monkeypatch.setattr(dec, "encode", _no_encoding)
    with pytest.raises(ValueError, match=f"max decoder length is {model.cfg.max_dec_len}"):
        dec.caption_image(model, examples[0].image, cfg, np.random.default_rng(0))
    # called directly, the decoders still refuse a cache larger than the decoder
    over = replace(cfg, max_len=model.cfg.max_dec_len + 1)
    with pytest.raises(ValueError, match=f"exceeds max decoder length {model.cfg.max_dec_len}"):
        if strategy == "beam":
            beam_search(model, enc, over)
        else:
            candidates = np.concatenate(([SPECIALS.eos], dec.allowed_ids(model, "text")))
            dec._sample(model, enc, over, [np.random.default_rng(0)], SPECIALS.bos, candidates,
                        over.max_len, stop=SPECIALS.eos)


def test_decoding_leaves_gradients_untouched(gen_world):
    model, vocab, examples = gen_world
    sentinel = {name: np.full(p.shape, 7.0) for name, p in model.named_parameters()}
    for name, p in model.named_parameters():
        p.grad = sentinel[name]
    try:
        caption = examples[0].caption
        dec.caption_image(model, examples[0].image, DecodeConfig(beam_size=3, max_len=5))
        dec.caption_image(model, examples[0].image, DecodeConfig(strategy="topk", max_len=5),
                          np.random.default_rng(0))
        images = dec.generate_image(model, caption, DecodeConfig(strategy="nucleus", n_samples=2),
                                    np.random.default_rng(0), (4, 4))
        dec.rerank(model, caption, images)
        dec.caption_nll(model, images[0], caption)
        for name, p in model.named_parameters():
            assert p.grad is sentinel[name] and (p.grad == 7.0).all(), name
    finally:
        model.zero_grad()


def test_generate_image_rejects_beam(gen_world):
    model, vocab, examples = gen_world
    with pytest.raises(ValueError):
        dec.generate_image_tokens(model, examples[0].caption,
                                  DecodeConfig(strategy="beam"),
                                  np.random.default_rng(0), 16)


def test_rerank_single_and_ties(gen_world):
    model, vocab, examples = gen_world
    img = examples[0].image
    idx, scores = dec.rerank(model, examples[0].caption, [img])
    assert idx == 0 and len(scores) == 1
    idx, scores = dec.rerank(model, examples[0].caption, [img, img, img])
    assert idx == 0  # identical candidates tie; first wins
    assert scores[0] == scores[1] == scores[2]


def test_rerank_is_argmax(gen_world):
    # the batched scores equal per-candidate teacher forcing, across batches
    model, vocab, examples = gen_world
    images = [ex.image for ex in examples] * 2
    assert len(images) > dec._RERANK_BATCH
    caption = examples[0].caption
    idx, scores = dec.rerank(model, caption, images)
    nlls = [dec.caption_nll(model, img, caption) for img in images]
    assert np.abs(np.array(scores) + np.array(nlls)).max() <= 1e-12
    assert nlls[idx] <= min(nlls) + 1e-12


def test_rerank_rejects_non_finite_scores(gen_world):
    model, vocab, examples = gen_world
    broken = mdl.init_model(model.cfg, 0, featurizer=model.featurizer, codebook=model.codebook)
    broken.patch_proj.values[:] = np.nan
    with pytest.raises(ValueError, match="not all finite"):
        dec.rerank(broken, examples[0].caption, [examples[0].image, examples[1].image])


def test_rerank_empty_errors(gen_world):
    model, vocab, examples = gen_world
    with pytest.raises(ValueError):
        dec.rerank(model, examples[0].caption, [])


def test_caption_image_modality(gen_world):
    model, vocab, examples = gen_world
    tokens = dec.caption_image(model, examples[0].image, DecodeConfig(beam_size=2, max_len=6))
    split = N_SPECIALS + model.cfg.text_vocab
    assert all(N_SPECIALS <= t < split for t in tokens.tolist())


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(strategy="magic")
    with pytest.raises(ValueError):
        DecodeConfig(top_p=0.0)
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=0)
    with pytest.raises(ValueError):
        DecodeConfig(modality="audio")
