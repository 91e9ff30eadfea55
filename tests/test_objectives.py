import math

import numpy as np
import pytest

from duvlg import autodiff as ad
from duvlg import model as mdl
from duvlg import objectives as obj
from duvlg.autodiff import Tensor
from duvlg.codec import PatchFeaturizer, VisualCodebook
from duvlg.data import TextVocab, gen_dataset
from duvlg.model import SPECIALS, ModelConfig, N_SPECIALS
from duvlg.config import RunConfig
from duvlg.objectives import TaskKind


CFG = ModelConfig(d_model=16, n_layers_enc=1, n_layers_dec=1, n_heads=2, d_ff=32,
                  text_vocab=17, visual_vocab=16, max_text_len=24, max_patches=16,
                  d_feat=8)
GRID = (4, 4)
CORR = RunConfig()


@pytest.fixture(scope="module")
def setup():
    cb = VisualCodebook.build(K=CFG.visual_vocab, d_code=8, patch_size=4)
    feat = PatchFeaturizer(4, CFG.d_feat)
    vocab = TextVocab()
    examples = gen_dataset(8, 0, cb, GRID, vocab)
    return cb, feat, vocab, examples


def _model(setup, seed=0):
    cb, feat, _, _ = setup
    return mdl.init_model(CFG, seed, featurizer=feat, codebook=cb)


def _batch(setup, kind, seed=0, n=4):
    _, _, _, examples = setup
    model = _model(setup)
    rng = np.random.default_rng(seed)
    return model, obj.build_task_batch(examples[:n], kind, rng, model, CORR)


def test_dae_image_batch_layout(setup):
    model, batch = _batch(setup, TaskKind.DAE_IMAGE)
    for i in range(len(batch)):
        assert batch.enc_text[i] is not None  # clean caption context
        assert batch.enc_patch_mask[i].count >= math.ceil(0.5 * 16)
        assert len(batch.targets[i]) == 16 + 2
        assert batch.targets[i][0] == SPECIALS.boi
        assert batch.targets[i][-1] == SPECIALS.eoi


def test_dae_text_batch_layout(setup):
    model, batch = _batch(setup, TaskKind.DAE_TEXT)
    for i in range(len(batch)):
        corrupted = batch.enc_text[i]
        assert (corrupted == SPECIALS.mask).any()
        assert batch.enc_patches[i] is not None
        assert batch.targets[i][0] == SPECIALS.bos
        assert batch.targets[i][-1] == SPECIALS.eos


def test_mt_caption_has_no_text_input(setup):
    model, batch = _batch(setup, TaskKind.MT_CAPTION)
    assert all(t is None for t in batch.enc_text)
    assert all(p is not None for p in batch.enc_patches)


def test_mt_t2i_has_no_image_input(setup):
    model, batch = _batch(setup, TaskKind.MT_T2I)
    assert all(p is None for p in batch.enc_patches)
    assert all(t is not None for t in batch.enc_text)
    for i in range(len(batch)):
        assert len(batch.targets[i]) == 16 + 2


def test_empty_batch_rejected(setup):
    model = _model(setup)
    with pytest.raises(ValueError):
        obj.build_task_batch([], TaskKind.MT_CAPTION, np.random.default_rng(0), model, CORR)


@pytest.mark.parametrize("kind", list(TaskKind))
def test_init_loss_near_uniform(setup, kind):
    # fresh init: logits are near-uniform, NLL ~ ln(head size) within 10%
    model, batch = _batch(setup, kind)
    loss = obj.task_nll(batch, model).item()
    assert loss == pytest.approx(math.log(CFG.head_size), rel=0.10)


def test_commitment_zero_when_rows_match(setup):
    model, batch = _batch(setup, TaskKind.MT_T2I, n=2)
    for feats, vis in zip(batch.clean_features, batch.clean_visual):
        proj = feats.features.values @ model.patch_proj.values
        model.visual_embed_dec.values[vis] = proj
    assert obj.loss_commitment(batch, model).item() == pytest.approx(0.0, abs=1e-24)


def test_commitment_gradient_contract(setup):
    model, batch = _batch(setup, TaskKind.MT_T2I, n=2)
    loss = obj.loss_commitment(batch, model)
    model.zero_grad()
    ad.backward(loss)
    assert np.array_equal(model.patch_proj.grad, np.zeros_like(model.patch_proj.values))
    in_batch = np.unique(np.concatenate(batch.clean_visual))
    emb_grad = model.visual_embed_dec.grad
    assert np.abs(emb_grad[in_batch]).max() > 0
    out_of_batch = np.setdiff1d(np.arange(CFG.visual_vocab), in_batch)
    assert np.array_equal(emb_grad[out_of_batch], np.zeros((len(out_of_batch), CFG.d_model)))
    # no other parameter receives gradient from the commitment loss
    for name, p in model.named_parameters():
        if name not in ("visual_embed_dec",):
            assert p.grad is None or not np.abs(p.grad).any(), name


def test_commitment_forced_arithmetic():
    # one position, difference vector of ones in d_model dims -> d_model
    d = 8
    proj = Tensor(np.zeros((1, d)))
    emb = Tensor(np.ones((1, d)))
    assert ad.squared_error(ad.stop_gradient(proj), emb).item() == float(d)


def test_commitment_uses_clean_features(setup):
    # DAE_IMAGE batches keep uncorrupted features for the commitment loss
    model, batch = _batch(setup, TaskKind.DAE_IMAGE, n=2)
    for i in range(len(batch)):
        assert batch.clean_features[i] is batch.enc_patches[i]
        assert batch.enc_patch_mask[i].count > 0
    val = obj.loss_commitment(batch, model).item()
    assert np.isfinite(val) and val > 0


def test_total_loss_paper_arithmetic():
    # l_text=1.0 and image-side terms summing to 2.0 at alpha=0.05 -> 1.1
    terms = {"l_dae_text": Tensor(1.0), "l_dae_image": Tensor(1.5),
             "l_mt_image": Tensor(0.25), "l_com": Tensor(0.25)}
    total, b = obj.total_loss(terms, alpha=0.05, beta=1.0)
    assert total.item() == pytest.approx(1.1, abs=1e-15)
    assert b.l_image == pytest.approx(2.0)


def test_total_loss_alpha_zero():
    terms = {"l_mt_text": Tensor(0.7), "l_mt_image": Tensor(3.0)}
    total, _ = obj.total_loss(terms, alpha=0.0, beta=1.0)
    assert total.item() == pytest.approx(0.7, abs=1e-15)


def test_total_loss_beta_zero_removes_commitment():
    terms = {"l_dae_image": Tensor(2.0), "l_com": Tensor(5.0)}
    with_beta, _ = obj.total_loss(dict(terms), alpha=1.0, beta=0.0)
    without_com, _ = obj.total_loss({"l_dae_image": Tensor(2.0)}, alpha=1.0, beta=0.0)
    assert with_beta.item() == without_com.item() == 2.0


def test_total_loss_requires_terms():
    with pytest.raises(ValueError):
        obj.total_loss({}, 0.05, 1.0)
    with pytest.raises(ValueError):
        obj.total_loss({"nonsense": Tensor(1.0)}, 0.05, 1.0)


def test_breakdown_identities_random():
    rng = np.random.default_rng(0)
    names = ("l_dae_image", "l_dae_text", "l_mt_image", "l_mt_text", "l_com")
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        chosen = rng.choice(5, size=k, replace=False)
        terms = {names[int(i)]: Tensor(float(rng.uniform(0, 5))) for i in chosen}
        alpha = float(rng.choice([0.0, 0.05, 0.5, 1.0, 2.0]))
        beta = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
        _, b = obj.total_loss(terms, alpha, beta)
        assert abs(b.l_image - (b.l_dae_image + b.l_mt_image + beta * b.l_com)) <= 1e-12
        assert abs(b.l_total - (b.l_text + alpha * b.l_image)) <= 1e-12


@pytest.mark.parametrize("kind", list(TaskKind))
def test_task_loss_gradcheck(setup, kind):
    """Finite-difference check of each task loss on a handful of parameters."""
    cb, feat, vocab, examples = setup
    model = _model(setup)
    rng = np.random.default_rng(1)
    batch = obj.build_task_batch(examples[:2], kind, rng, model, CORR)

    def loss():
        terms = obj.task_terms(batch, model, use_commitment=kind in obj.IMAGE_TARGET_KINDS)
        return obj.total_loss(terms, alpha=0.05, beta=1.0)[0]

    for name in ("visual_embed_dec", "enc.0.attn.wq", "dec.0.cross.wv", "dec.0.ffn.w1"):
        report = ad.grad_check(loss, model.params[name])
        assert report.max_rel_error < 1e-4, (name, report)


@pytest.mark.parametrize("kind", list(TaskKind))
def test_batched_nll_matches_per_example_loop(setup, kind):
    # independent oracle: encode/decode each example separately, weight by
    # predicted positions
    model, batch = _batch(setup, kind, n=3)
    batched = obj.task_nll(batch, model).item()
    total, n_pos = 0.0, 0
    for i in range(len(batch)):
        enc = mdl.encode(model, text_ids=batch.enc_text[i], patches=batch.enc_patches[i],
                         patch_mask=batch.enc_patch_mask[i])
        tgt = batch.targets[i]
        logits = mdl.decode_forward(model, tgt[:-1], enc)
        ce = ad.cross_entropy_logits(logits, tgt[1:]).item()
        total += ce * (len(tgt) - 1)
        n_pos += len(tgt) - 1
    assert batched == pytest.approx(total / n_pos, rel=1e-10)


def test_batched_commitment_matches_loop(setup):
    model, batch = _batch(setup, TaskKind.MT_T2I, n=3)
    batched = obj.loss_commitment(batch, model).item()
    total, n_pos = 0.0, 0
    for feats, vis in zip(batch.clean_features, batch.clean_visual):
        proj = feats.features.values @ model.patch_proj.values
        emb = model.visual_embed_dec.values[vis]
        total += ((proj - emb) ** 2).sum()
        n_pos += len(vis)
    assert batched == pytest.approx(total / n_pos, rel=1e-12)


def test_sampler_extremes():
    rng = np.random.default_rng(0)
    assert all(obj.sample_task(rng, 1.0) in (TaskKind.DAE_IMAGE, TaskKind.DAE_TEXT)
               for _ in range(200))
    assert all(obj.sample_task(rng, 0.0) in (TaskKind.MT_T2I, TaskKind.MT_CAPTION)
               for _ in range(200))


def test_sampler_statistics():
    rng = np.random.default_rng(123)
    draws = [obj.sample_task(rng, 0.6) for _ in range(10000)]
    dae = sum(k in (TaskKind.DAE_IMAGE, TaskKind.DAE_TEXT) for k in draws)
    assert 0.58 <= dae / 10000 <= 0.62
    dae_img = sum(k is TaskKind.DAE_IMAGE for k in draws)
    mt_img = sum(k is TaskKind.MT_T2I for k in draws)
    assert 0.47 <= dae_img / dae <= 0.53
    assert 0.47 <= mt_img / (10000 - dae) <= 0.53


def test_sampler_restricted():
    rng = np.random.default_rng(5)
    only_text = {obj.sample_task(rng, 0.6, allow_image=False) for _ in range(100)}
    assert only_text == {TaskKind.DAE_TEXT, TaskKind.MT_CAPTION}
    only_img = {obj.sample_task(rng, 0.6, allow_text=False) for _ in range(100)}
    assert only_img == {TaskKind.DAE_IMAGE, TaskKind.MT_T2I}


@pytest.mark.parametrize("allow", [{}, {"allow_image": False}, {"allow_text": False},
                                   {"allow_image": False, "allow_text": False}])
@pytest.mark.parametrize("p_dae", [-0.1, 1.5, float("nan")])
def test_sampler_rejects_bad_p_dae(allow, p_dae):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="p_dae"):
        obj.sample_task(rng, p_dae, **allow)
    assert rng.random() == np.random.default_rng(0).random()  # nothing drawn


def test_sampler_rejects_no_direction():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="directions"):
        obj.sample_task(rng, 0.6, allow_image=False, allow_text=False)
    assert rng.random() == np.random.default_rng(0).random()  # nothing drawn


_KIND = {"DI": TaskKind.DAE_IMAGE, "DT": TaskKind.DAE_TEXT,
         "MC": TaskKind.MT_CAPTION, "MT": TaskKind.MT_T2I}


@pytest.mark.parametrize("allow, expected, next_draw", [
    ({}, "DI MT DT DI MC DT MT DT MC MC MT DI DT DT MT DI DT DI MT MT", 0.03307468737742869),
    ({"allow_image": False}, "DT DT MC DT DT MC DT DT MC MC DT DT MC DT DT MC MC DT MC DT",
     0.9809136392973055),
    ({"allow_text": False}, "DI DI MT DI DI MT DI DI MT MT DI DI MT DI DI MT MT DI MT DI",
     0.9809136392973055),
])
def test_sampler_draw_order_pinned(allow, expected, next_draw):
    # one draw for the family, a second for the direction only when both are
    # allowed: the kinds and the generator state after them are pinned
    rng = np.random.default_rng(11)
    assert [obj.sample_task(rng, 0.6, **allow) for _ in range(20)] \
        == [_KIND[k] for k in expected.split()]
    assert rng.random() == next_draw
