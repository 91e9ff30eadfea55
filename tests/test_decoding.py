import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from duvlg import autodiff as ad
from duvlg import config
from duvlg import decoding as dec
from duvlg import model as mdl
from duvlg.codec import PatchFeaturizer, VisualCodebook
from duvlg.data import TextVocab, gen_dataset
from duvlg.config import RunConfig
from duvlg.decoding import beam_search, nucleus_filter
from duvlg.model import SPECIALS, ModelConfig, N_SPECIALS

import reference
from reference import top_k_filter


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


def _reference_pick(lp, cfg, strategy, rng) -> int:
    """Per-row pick through the filters and ``rng.choice``: the simple path
    the batched ``dec._pick`` must reproduce bit for bit."""
    if strategy == "greedy":
        return int(np.argmax(lp))
    probs = np.exp(lp)
    probs = probs / probs.sum()
    if strategy == "nucleus":
        support, renorm = nucleus_filter(probs, cfg.top_p)
    else:
        support, renorm = top_k_filter(probs, cfg.top_k)
    return int(rng.choice(support, p=renorm))


def _exhaustive_best(model, enc, cfg):
    """Enumerate every candidate sequence and score it like the search does."""
    words = list(dec.allowed_ids(model, "text"))
    candidates = np.concatenate(([SPECIALS.eos], words))

    def logp(prefix):
        return _full_logprobs(model, enc, prefix, candidates, cfg.temperature)

    best = None
    for length in range(cfg.max_decode_len + 1):
        for tokens in itertools.product(words, repeat=length):
            prefix = (SPECIALS.bos,) + tokens
            total = 0.0
            for t, tok in enumerate(tokens):
                lp = logp((SPECIALS.bos,) + tokens[:t])
                total += lp[1 + words.index(tok)]
            if length < cfg.max_decode_len:  # terminated by eos
                total += logp(prefix)[0]
                score = total / (length + 1) ** cfg.length_norm
            else:  # truncated at max_decode_len
                score = total / length**cfg.length_norm
            key = (-score, tuple(int(t) for t in tokens))
            if best is None or key < best[0]:
                best = (key, np.asarray(tokens, dtype=np.int64), score)
    return best[1], best[2]


def test_beam_one_equals_greedy():
    model = _tiny(0)
    enc = _enc(model)
    tokens, _ = beam_search(model, enc, RunConfig(max_decode_len=5), 1)
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
    cfg = RunConfig(max_decode_len=3)
    tokens, score = beam_search(model, enc, cfg, 4**3)
    ref_tokens, ref_score = _exhaustive_best(model, enc, cfg)
    assert tokens.tolist() == ref_tokens.tolist()
    assert score == pytest.approx(ref_score, abs=1e-12)


def test_beam_uniform_ties_lexicographic(monkeypatch):
    model = _tiny(1)
    enc = _enc(model)

    def uniform(model_, enc_, enc_valid, cache, tokens, candidates, temperature):
        return np.full((len(tokens), len(candidates)), -np.log(len(candidates)))

    monkeypatch.setattr(dec, "_step_logprobs", uniform)
    tokens, _ = beam_search(model, enc, RunConfig(max_decode_len=3), 8)
    assert tokens.tolist() == []  # empty sequence is lexicographically smallest


def test_beam_score_at_least_greedy():
    cfg = RunConfig(max_decode_len=6)
    for seed in range(5):
        model = _tiny(seed, text_vocab=5)
        enc = _enc(model)
        g_tokens, g_score = beam_search(model, enc, cfg, 1)
        b_tokens, b_score = beam_search(model, enc, cfg, 5)
        assert b_score >= g_score - 1e-12


class _PrefixCache:
    """Stands in for the decoder cache: each row's fed tokens."""

    def __init__(self):
        self.prefixes = [()]

    def reorder(self, rows):
        self.prefixes = [self.prefixes[r] for r in rows]


def _fake_decoder(monkeypatch, logprobs):
    """Route beam search through a decoder whose step log-probs for a row are
    ``logprobs(tokens fed to that row)``, whatever the row's position."""
    def start(_model, _enc_states, _capacity):
        return None, None, _PrefixCache()

    def step(_model, _enc, _valid, cache, tokens, candidates, _temperature):
        cache.prefixes = [p + (int(t),) for p, t in zip(cache.prefixes, tokens)]
        return np.array([logprobs(p, len(candidates)) for p in cache.prefixes])

    monkeypatch.setattr(dec, "_start", start)
    monkeypatch.setattr(dec, "_step_logprobs", step)


def _random_lp(seed):
    return lambda prefix, n: np.random.default_rng([seed, *prefix]).normal(size=n) * 2.0 - 3.0


def _tied_lp(seed):
    # halves in [-2, -0.5]: every sum is exact, so many scores tie exactly
    return lambda prefix, n: np.random.default_rng([seed, *prefix]).integers(-4, 0, n) * 0.5


_BEAM_LOGPROBS = {
    "random": _random_lp,
    "exact_ties": _tied_lp,
    "uniform": lambda seed: lambda prefix, n: np.full(n, -np.log(n)),
}


@pytest.mark.parametrize("modality", ["text"])  # beam search decodes captions only
@pytest.mark.parametrize("beam_size", [1, 2, 5, 200])  # 200 exceeds every pool here
@pytest.mark.parametrize("case", list(_BEAM_LOGPROBS))
def test_beam_matches_tuple_sort_reference(monkeypatch, case, beam_size, modality):
    model = _tiny(0, text_vocab=5)
    words = set(dec.allowed_ids(model, modality).tolist())
    for seed, (max_len, length_norm) in enumerate([(4, 1.0), (5, 0.0), (3, 0.7), (4, -0.5)]):
        _fake_decoder(monkeypatch, _BEAM_LOGPROBS[case](seed))
        cfg = RunConfig(max_decode_len=max_len, length_norm=length_norm)
        tokens, score = beam_search(model, None, cfg, beam_size)
        ref_tokens, ref_score = reference.beam_search(model, None, cfg, beam_size)
        assert set(tokens.tolist()) <= words
        assert tokens.tolist() == ref_tokens.tolist()
        assert score.hex() == ref_score.hex()


def test_beam_tie_at_the_cutoff_breaks_by_tokens_across_parents(monkeypatch):
    # words 8..12; candidate 0 is eos.  After step 1 the beam holds (8,)
    # (total -2) and (9,) (total -1); at step 2, (8, 12) and (9, 12) tie at
    # -3 for the second slot, and the smaller tokens (8, 12) must stay,
    # although its parent scored lower.  It then ends best, at -3 / 3.
    table = {(0,): [-9, -2, -1, -9, -9, -9],
             (0, 9): [-9, -0.5, -9, -9, -9, -2],
             (0, 8): [-9, -9, -9, -9, -9, -1],
             (0, 8, 12): [0, -9, -9, -9, -9, -9]}
    _fake_decoder(monkeypatch, lambda prefix, n: np.array(table.get(prefix, [-9.0] * n), float))
    model, cfg = _tiny(0, text_vocab=5), RunConfig(max_decode_len=3)
    for search in (beam_search, reference.beam_search):
        tokens, score = search(model, None, cfg, 2)
        assert tokens.tolist() == [8, 12] and score == -1.0


@pytest.mark.parametrize("beam_size", [1, 5])
def test_beam_on_a_model_matches_reference_bitwise(gen_world, monkeypatch, beam_size):
    # end to end: the one-table step log-probs and the array beam against
    # the full-head step and the tuple-sort beam
    model, vocab, examples = gen_world
    cfg = RunConfig(max_decode_len=10)
    encoded = [mdl.encode(model, patches=model.featurizer.featurize_image(ex.image))
               for ex in examples]
    got = [beam_search(model, enc, cfg, beam_size) for enc in encoded]
    monkeypatch.setattr(dec, "_step_logprobs", reference.step_logprobs)
    want = [reference.beam_search(model, enc, cfg, beam_size) for enc in encoded]
    for (tokens, score), (ref_tokens, ref_score) in zip(got, want):
        assert tokens.tolist() == ref_tokens.tolist() and score.hex() == ref_score.hex()


@pytest.mark.parametrize("candidates", ["text", "image"])
def test_step_logprobs_match_full_head_columns(gen_world, candidates):
    model, vocab, examples = gen_world
    ids = {"text": np.concatenate(([SPECIALS.eos], dec.allowed_ids(model, "text"))),
           "image": dec.allowed_ids(model, "image")}[candidates]
    first = SPECIALS.boi if candidates == "image" else SPECIALS.bos
    enc_states = mdl.encode(model, text_ids=examples[2].caption)
    rng = np.random.default_rng(3)
    with ad.no_grad():
        fast, slow = dec._start(model, enc_states, 8), dec._start(model, enc_states, 8)
        tokens = np.full(3, first)
        for t in range(8):
            if t in (3, 6):
                rows = [2, 0, 0]  # a dropped row and a duplicated one, as the beam does
                fast[2].reorder(rows)
                slow[2].reorder(rows)
            got = dec._step_logprobs(model, *fast, tokens, ids, 0.7)
            want = reference.step_logprobs(model, *slow, tokens, ids, 0.7)
            assert np.array_equal(got, want), t
            tokens = ids[rng.integers(0, len(ids), 3)]


def test_support_mass_sums_each_support_alone():
    # rows whose kept counts differ, including supports past numpy's
    # 8-way unrolled and 128-element pairwise blocks
    rng = np.random.default_rng(4)
    ranked = -np.sort(-rng.uniform(size=(12, 300)), axis=1)
    for kept in ([1, 2, 7, 8, 9, 127, 128, 129, 300, 9, 2, 300],
                 rng.integers(1, 301, 12), np.full(12, 5)):
        kept = np.asarray(kept)
        got = dec._support_mass(ranked, kept)
        assert got.tobytes() == reference.support_mass(ranked, kept).tobytes()


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
    cfg = RunConfig(max_decode_len=6, top_p=0.9, top_k=3)
    rng = np.random.default_rng(0)
    text_range = set(range(N_SPECIALS, N_SPECIALS + 5))
    candidates = np.concatenate(([SPECIALS.eos], dec.allowed_ids(model, "text")))
    for _ in range(10):
        for strategy in ("nucleus", "topk"):
            out = dec._sample(model, enc, cfg, strategy, [rng], SPECIALS.bos, candidates,
                              cfg.max_decode_len, stop=SPECIALS.eos)
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
        "support_of_one": (peaked, {"top_p": 0.5, "top_k": 1}),
        "k_at_least_size": (rng.normal(size=(5, 8)), {"top_k": 50}),
        "one_row": (rng.normal(size=(1, 89)) * 3.0, {"top_p": 0.7, "top_k": 3}),
        "one_candidate": (rng.normal(size=(3, 1)), {}),
    }


@pytest.mark.parametrize("strategy", ["nucleus", "topk", "greedy"])
@pytest.mark.parametrize("case", list(_pick_cases()))
def test_pick_matches_per_row_reference(case, strategy):
    logits, overrides = _pick_cases()[case]
    lp = _log_softmax(logits)
    cfg = RunConfig(**{"top_p": 0.9, "top_k": 5, **overrides})
    for seed in range(5):
        batched = np.random.default_rng(seed).spawn(len(lp))
        per_row = np.random.default_rng(seed).spawn(len(lp))
        got = dec._pick(lp, cfg, strategy, batched)
        want = [_reference_pick(row, cfg, strategy, child) for row, child in zip(lp, per_row)]
        assert got.tolist() == want
        # one draw per sampled row, none for greedy: the streams stay in step
        assert [c.bit_generator.state for c in batched] == [c.bit_generator.state for c in per_row]


def test_pick_rejects_beam():
    with pytest.raises(ValueError, match="not a sampling strategy"):
        dec._pick(np.zeros((1, 3)), RunConfig(), "beam", [np.random.default_rng(0)])


@pytest.mark.parametrize("field, value, text", [
    ("temperature", float("nan"), "temperature must be finite and > 0"),
    ("temperature", float("inf"), "temperature must be finite and > 0"),
    ("temperature", 0.0, "temperature must be finite and > 0"),
    ("length_norm", float("nan"), "length_norm must be finite"),
    ("length_norm", float("inf"), "length_norm must be finite"),
    ("length_norm", -float("inf"), "length_norm must be finite"),
])
def test_decode_config_refuses_non_finite_settings(field, value, text):
    # temperature=nan passed a "<= 0" check, and length_norm=nan made beam
    # search prefer the empty caption
    with pytest.raises(ValueError, match=text):
        RunConfig(**{field: value})


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
    cfg = RunConfig()
    assert cfg.n_samples == 16 and cfg.top_p == 0.9  # defaults match the sampling protocol
    seqs = dec.generate_image_tokens(model, examples[0].caption, cfg,
                                     np.random.default_rng(0), n_patches=16)
    assert len(seqs) == 16
    split = model.cfg.first_visual_id
    for seq in seqs:
        assert seq[0] == SPECIALS.boi and seq[-1] == SPECIALS.eoi
        body = seq[1:-1]
        assert len(body) == 16
        assert (body >= split).all()  # no text ids inside the image span


def test_generate_image_decodes(gen_world):
    model, vocab, examples = gen_world
    cfg = RunConfig(n_samples=3)
    images = dec.generate_image(model, examples[0].caption, cfg,
                                np.random.default_rng(0), (4, 4))
    assert len(images) == 3
    for img in images:
        assert img.pixels.shape == (16, 16, 3)


def test_generate_image_deterministic(gen_world):
    model, vocab, examples = gen_world
    cfg = RunConfig(n_samples=4)
    a = dec.generate_image(model, examples[0].caption, cfg, np.random.default_rng(9), (4, 4))
    b = dec.generate_image(model, examples[0].caption, cfg, np.random.default_rng(9), (4, 4))
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.pixels, ib.pixels)


def _oracle_image_tokens(model, caption, cfg, strategy, rng, n_patches):
    """Per-sample full-recompute sampler with the same pick rule and streams."""
    enc = mdl.encode(model, text_ids=caption)
    visual = dec.allowed_ids(model, "image")
    out = []
    for child in rng.spawn(cfg.n_samples):
        prefix = [SPECIALS.boi]
        for _ in range(n_patches):
            lp = _full_logprobs(model, enc, prefix, visual, cfg.temperature)
            prefix.append(int(visual[_reference_pick(lp, cfg, strategy, child)]))
        out.append(prefix + [SPECIALS.eoi])
    return out


@pytest.mark.parametrize("strategy,seed", [("nucleus", 0), ("nucleus", 1), ("topk", 2),
                                           ("topk", 3)])
def test_generate_image_tokens_match_full_recompute(gen_world, strategy, seed):
    model, vocab, examples = gen_world
    cfg = RunConfig(n_samples=4, top_p=0.8, top_k=5, temperature=0.7)
    caption = examples[seed].caption
    seqs = dec.generate_image_tokens(model, caption, cfg, np.random.default_rng(seed), 16,
                                     strategy)
    ref = _oracle_image_tokens(model, caption, cfg, strategy, np.random.default_rng(seed), 16)
    assert [s.tolist() for s in seqs] == ref


def test_sample_text_matches_full_recompute(gen_world):
    model, vocab, examples = gen_world
    cfg = RunConfig(max_decode_len=8, top_p=0.95, temperature=2.0)
    enc = mdl.encode(model, patches=model.featurizer.featurize_image(examples[1].image))
    candidates = np.concatenate(([SPECIALS.eos], dec.allowed_ids(model, "text")))
    for seed in range(3):
        got = dec.caption_image(model, examples[1].image, cfg, "nucleus",
                                np.random.default_rng(seed))
        rng, prefix = np.random.default_rng(seed), [SPECIALS.bos]
        for _ in range(cfg.max_decode_len):
            lp = _full_logprobs(model, enc, prefix, candidates, cfg.temperature)
            pick = int(candidates[_reference_pick(lp, cfg, "nucleus", rng)])
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
    run_cfg = RunConfig(seed=4)
    model, vocab = config.build_model(run_cfg)
    caption = gen_dataset(1, 4, model.codebook, run_cfg.grid_dims(), vocab)[0].caption
    seqs = np.stack(dec.generate_image_tokens(model, caption, run_cfg, np.random.default_rng(21),
                                              64, strategy))
    assert seqs.shape == (16, 66)
    assert hashlib.sha256(seqs.astype("<i8").tobytes()).hexdigest() == _PINNED_IMAGE_TOKENS[strategy]


def _never_pick(*_args):
    raise AssertionError("a token was picked from non-finite log-probabilities")


@pytest.mark.parametrize("strategy, modality", [
    ("beam", "text"), ("greedy", "text"), ("nucleus", "text"), ("topk", "text"),
    ("greedy", "image"), ("nucleus", "image"), ("topk", "image")])  # images have no beam
def test_non_finite_logprobs_fail_before_any_pick(gen_world, monkeypatch, strategy, modality):
    model, vocab, examples = gen_world
    # one NaN in the last row of the head block this modality decodes into
    row = (model.cfg.first_visual_id if modality == "text" else model.cfg.head_size) - 1
    poisoned = model.embed.values.copy()
    poisoned[row, 0] = np.nan
    monkeypatch.setattr(model.embed, "values", poisoned)
    monkeypatch.setattr(dec, "_pick", _never_pick)
    cfg = RunConfig(max_decode_len=4, n_samples=3)
    with pytest.raises(ValueError, match="log-probabilities are not all finite"):
        if modality == "text":
            dec.caption_image(model, examples[0].image, cfg, strategy, np.random.default_rng(0))
        else:
            dec.generate_image_tokens(model, examples[0].caption, cfg,
                                      np.random.default_rng(0), 4, strategy)


def _no_encoding(*_args, **_kwargs):
    raise AssertionError("length checks must run before any encoding")


def test_generate_image_checks_patch_count_first(gen_world, monkeypatch):
    model, vocab, examples = gen_world
    monkeypatch.setattr(dec, "encode", _no_encoding)
    with pytest.raises(ValueError, match="17 patches exceeds max_patches 16"):
        dec.generate_image_tokens(model, examples[0].caption, RunConfig(n_samples=2),
                                  np.random.default_rng(0), 17)


@pytest.mark.parametrize("strategy", ["beam", "greedy", "nucleus", "topk"])
def test_text_decoders_check_length_first(gen_world, monkeypatch, strategy):
    model, vocab, examples = gen_world
    enc = mdl.encode(model, text_ids=examples[0].caption)
    cfg = RunConfig(max_decode_len=model.cfg.max_dec_len)
    monkeypatch.setattr(dec, "encode", _no_encoding)
    with pytest.raises(ValueError, match=f"max decoder length is {model.cfg.max_dec_len}"):
        dec.caption_image(model, examples[0].image, cfg, strategy, np.random.default_rng(0))
    # called directly, the decoders still refuse a cache larger than the decoder
    over = replace(cfg, max_decode_len=model.cfg.max_dec_len + 1)
    with pytest.raises(ValueError, match=f"exceeds max decoder length {model.cfg.max_dec_len}"):
        if strategy == "beam":
            beam_search(model, enc, over, over.beam_size)
        else:
            candidates = np.concatenate(([SPECIALS.eos], dec.allowed_ids(model, "text")))
            dec._sample(model, enc, over, strategy, [np.random.default_rng(0)], SPECIALS.bos,
                        candidates, over.max_decode_len, stop=SPECIALS.eos)


def test_decoding_leaves_gradients_untouched(gen_world):
    model, vocab, examples = gen_world
    sentinel = {name: np.full(p.shape, 7.0) for name, p in model.named_parameters()}
    for name, p in model.named_parameters():
        p.grad = sentinel[name]
    try:
        caption = examples[0].caption
        dec.caption_image(model, examples[0].image, RunConfig(beam_size=3, max_decode_len=5))
        dec.caption_image(model, examples[0].image, RunConfig(max_decode_len=5), "topk",
                          np.random.default_rng(0))
        images = dec.generate_image(model, caption, RunConfig(n_samples=2),
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
        dec.generate_image_tokens(model, examples[0].caption, RunConfig(),
                                  np.random.default_rng(0), 16, "beam")


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
    tokens = dec.caption_image(model, examples[0].image, RunConfig(beam_size=2, max_decode_len=6))
    split = model.cfg.first_visual_id
    assert all(N_SPECIALS <= t < split for t in tokens.tolist())


def test_unknown_strategies_fail_before_encoding(gen_world, monkeypatch):
    model, vocab, examples = gen_world
    monkeypatch.setattr(dec, "encode", _no_encoding)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown strategy 'magic'"):
        dec.caption_image(model, examples[0].image, RunConfig(), "magic", rng)
    for strategy in ("beam", "magic"):
        with pytest.raises(ValueError, match=f"greedy/nucleus/topk, not '{strategy}'"):
            dec.generate_image_tokens(model, examples[0].caption, RunConfig(), rng, 16, strategy)
