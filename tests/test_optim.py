import platform

import numpy as np
import pytest

from duvlg import model as mdl
from duvlg import objectives as obj
from duvlg import optim as op
from duvlg.codec import PatchFeaturizer, VisualCodebook
from duvlg.data import TextVocab, gen_dataset
from duvlg.model import ModelConfig
from duvlg.config import RunConfig
from duvlg.objectives import TaskKind
from duvlg.optim import adam_step


CFG = ModelConfig(d_model=16, n_layers_enc=1, n_layers_dec=1, n_heads=2, d_ff=32,
                  text_vocab=17, visual_vocab=16, max_text_len=24, max_patches=16,
                  d_feat=8)
GRID = (4, 4)


def _snapshot(model):
    return {name: p.values.copy() for name, p in model.named_parameters()}


@pytest.fixture(scope="module")
def world():
    cb = VisualCodebook.build(K=16, d_code=8, patch_size=4)
    feat = PatchFeaturizer(4, CFG.d_feat)
    vocab = TextVocab()
    examples = gen_dataset(8, 0, cb, GRID, vocab)
    return cb, feat, vocab, examples


def _model(world, seed=0):
    cb, feat, _, _ = world
    return mdl.init_model(CFG, seed, featurizer=feat, codebook=cb)


def test_adam_zero_grads_no_change(world):
    model = _model(world)
    before = _snapshot(model)
    model.zero_grad()
    adam_step(model, op.OptimState(), RunConfig(), 1e-3)
    for name, p in model.named_parameters():
        assert np.array_equal(p.values, before[name])


def test_adam_first_step_sign_property(world):
    model = _model(world)
    before = _snapshot(model)
    for _, p in model.named_parameters():
        p.grad = np.full_like(p.values, 0.5)
    adam_step(model, op.OptimState(), RunConfig(clip_norm=0.0), 1e-3)  # 0 disables clipping
    for name, p in model.named_parameters():
        delta = p.values - before[name]
        assert np.allclose(delta, -1e-3, rtol=1e-6)


def test_adam_clip_scales_effective_grads(world):
    model = _model(world)
    state = op.OptimState()
    n_total = sum(p.size for _, p in model.named_parameters())
    c = 10.0 / np.sqrt(n_total)  # global norm exactly 10
    for _, p in model.named_parameters():
        p.grad = np.full_like(p.values, c)
    norm = adam_step(model, state, RunConfig(clip_norm=1.0), 1e-3)
    assert norm == pytest.approx(10.0, rel=1e-12)
    # first moment saw g * 0.1: m = (1 - beta1) * g * 0.1
    m = state.m["embed"]
    assert np.allclose(m, 0.1 * c * 0.1, rtol=1e-12)


def test_adam_post_clip_norm_bounded(world):
    model = _model(world)
    rng = np.random.default_rng(0)
    cfg = RunConfig(clip_norm=1.0)
    for _, p in model.named_parameters():
        p.grad = rng.uniform(-3, 3, p.values.shape)
    pre = np.sqrt(sum(float((p.grad ** 2).sum()) for _, p in model.named_parameters()))
    scale = min(1.0, cfg.clip_norm / pre)
    post = pre * scale
    assert post <= cfg.clip_norm + 1e-12
    adam_step(model, op.OptimState(), cfg, cfg.lr)


def test_adam_rejects_non_finite(world):
    model = _model(world)
    for _, p in model.named_parameters():
        p.grad = np.zeros_like(p.values)
    model.params["patch_proj"].grad[0, 0] = np.nan
    with pytest.raises(op.NonFiniteGradientError, match="patch_proj"):
        adam_step(model, op.OptimState(), RunConfig(), 1e-3)


def test_adam_overflowing_norm_changes_nothing(world):
    # 1e200 is finite but its square is not; with clipping on, the inf norm
    # used to scale every gradient to zero and step silently
    model = _model(world)
    state, cfg = op.OptimState(), RunConfig()
    for _, p in model.named_parameters():
        p.grad = np.full_like(p.values, 0.5)
    adam_step(model, state, cfg, cfg.lr)  # the moments exist
    model.params["patch_proj"].grad[0, 0] = 1e200
    params = _snapshot(model)
    m = {name: a.copy() for name, a in state.m.items()}
    v = {name: a.copy() for name, a in state.v.items()}
    with np.errstate(over="ignore"), pytest.raises(
            op.NonFiniteGradientError, match="non-finite global gradient norm at step 1$"):
        adam_step(model, state, cfg, cfg.lr)
    assert state.step_count == 1
    for name, p in model.named_parameters():
        assert np.array_equal(p.values, params[name]), name
        assert np.array_equal(state.m[name], m[name]), name
        assert np.array_equal(state.v[name], v[name]), name


def test_adam_reads_its_settings_from_the_config(world):
    # two steps by hand: clip to cfg.clip_norm, then cfg's betas and eps at the given lr
    model = _model(world)
    params = _snapshot(model)
    cfg = RunConfig(adam_beta1=0.8, adam_beta2=0.99, adam_eps=1e-2, clip_norm=2.0)
    state = op.OptimState()
    rng = np.random.default_rng(1)
    m = dict.fromkeys(params, 0.0)
    v = dict(m)
    for t in (1, 2):
        grads = {name: rng.uniform(-1, 1, a.shape) for name, a in params.items()}
        for name, p in model.named_parameters():
            p.grad = grads[name].copy()
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert adam_step(model, state, cfg, 0.5) == pytest.approx(norm, rel=1e-12)
        for name, g in grads.items():
            g = g * (2.0 / norm)
            m[name] = 0.8 * m[name] + 0.2 * g
            v[name] = 0.99 * v[name] + 0.01 * g * g
            params[name] = params[name] - 0.5 * (m[name] / (1 - 0.8**t)) / (
                np.sqrt(v[name] / (1 - 0.99**t)) + 1e-2)
    assert state.step_count == 2
    for name, p in model.named_parameters():
        assert np.allclose(p.values, params[name], rtol=0, atol=1e-12), name
        assert np.allclose(state.m[name], m[name], rtol=1e-12, atol=0), name
        assert np.allclose(state.v[name], v[name], rtol=1e-12, atol=0), name


@pytest.mark.parametrize("kind", list(TaskKind))
def test_non_finite_loss_fails_before_backward(world, kind):
    # one NaN in a visual row of the tied table reaches every task's logits
    _, _, _, examples = world
    model = _model(world)
    cfg = RunConfig(batch_size=2)
    state = op.OptimState()
    batch = obj.build_task_batch(examples[:2], kind, np.random.default_rng(0), model, cfg)
    op._train_step(model, state, batch, cfg, 1.0, cfg.lr)  # the moments exist
    model.embed.values[-1, 0] = np.nan
    params = _snapshot(model)
    m = {name: a.copy() for name, a in state.m.items()}
    v = {name: a.copy() for name, a in state.v.items()}
    with pytest.raises(op.NonFiniteLossError,
                       match=rf"non-finite loss {obj.TERM_NAME[kind]}=nan in task "
                             rf"'{kind.value}' at step 1$"):
        op._train_step(model, state, batch, cfg, 1.0, cfg.lr)
    assert state.step_count == 1
    for name, p in model.named_parameters():
        assert np.array_equal(p.values, params[name], equal_nan=True), name
        assert np.array_equal(state.m[name], m[name]), name
        assert np.array_equal(state.v[name], v[name]), name


def test_pretrain_zero_steps_no_change(world):
    _, _, _, examples = world
    model = _model(world)
    before = _snapshot(model)
    records = op.pretrain(examples, model, 0, RunConfig(batch_size=2),
                          np.random.default_rng(0))
    assert records == []
    for name, p in model.named_parameters():
        assert np.array_equal(p.values, before[name])


def test_pretrain_deterministic_bitwise(world):
    # also with inference between steps: no_grad decoding must leave the
    # training graph, gradients and log untouched
    from duvlg.decoding import DecodeConfig, caption_image

    _, _, _, examples = world

    def run(decode_between_steps):
        model = _model(world, seed=3)
        lines = []

        def log(line):
            lines.append(line)
            if decode_between_steps:
                caption_image(model, examples[0].image, DecodeConfig(beam_size=2, max_len=4))

        op.pretrain(examples, model, 5, RunConfig(batch_size=2),
                    np.random.default_rng(11), log_fn=log)
        return _snapshot(model), lines

    (a, log_a), (b, log_b), (c, log_c) = run(False), run(False), run(True)
    assert log_a == log_b == log_c
    for name in a:
        assert np.array_equal(a[name], b[name]), name
        assert np.array_equal(a[name], c[name]), name


@pytest.mark.parametrize("kind", list(TaskKind))
def test_single_batch_overfit_decreases(world, kind):
    # training oracle: 50 Adam steps on one fixed batch cut the loss sharply
    from duvlg import autodiff as ad
    from duvlg.objectives import build_task_batch, task_terms, total_loss

    _, _, _, examples = world
    model = _model(world, seed=7)
    batch = build_task_batch(examples[:2], kind, np.random.default_rng(0),
                             model, RunConfig())
    state, cfg = op.OptimState(), RunConfig(lr=3e-3)
    losses = []
    for _ in range(50):
        terms = task_terms(batch, model)
        loss, _ = total_loss(terms, alpha=1.0, beta=1.0)
        losses.append(loss.item())
        model.zero_grad()
        ad.backward(loss)
        adam_step(model, state, cfg, cfg.lr)
    assert losses[-1] < losses[0]
    assert losses[-1] < 0.5 * losses[0]


def test_pretrain_log_format(world):
    _, _, _, examples = world
    model = _model(world)
    lines = []
    op.pretrain(examples, model, 3, RunConfig(batch_size=2),
                np.random.default_rng(0), log_fn=lines.append)
    assert len(lines) == 3
    for i, line in enumerate(lines):
        parts = line.split("\t")
        assert len(parts) == 7
        assert parts[0] == str(i)
        assert parts[1] in {k.value for k in TaskKind}
        float(parts[2]), float(parts[6])  # parseable


def test_finetune_defaults_and_isolation(world):
    _, _, _, examples = world
    assert RunConfig().t2i_lr == 1e-4
    assert RunConfig().caption_lr == 3e-5
    model = _model(world)
    records = op.finetune(examples, model, TaskKind.MT_CAPTION, 1,
                          RunConfig(batch_size=4), np.random.default_rng(0))
    for rec in records:
        assert rec.task is TaskKind.MT_CAPTION
        assert rec.breakdown.l_dae_image == rec.breakdown.l_mt_image == rec.breakdown.l_com == 0.0
        assert rec.breakdown.present == {"l_mt_text"}
    with pytest.raises(ValueError):
        op.finetune(examples, model, TaskKind.DAE_TEXT, 1, RunConfig(),
                    np.random.default_rng(0))


def test_finetune_improves_val_loss(world):
    _, _, _, examples = world
    model = _model(world, seed=5)
    train, val = examples[:6], examples[6:]
    cfg = RunConfig(batch_size=3, caption_lr=3e-3)
    before = op.evaluate_task_nll(val, model, TaskKind.MT_CAPTION, cfg)
    op.finetune(train, model, TaskKind.MT_CAPTION, 4, cfg, np.random.default_rng(2))
    after = op.evaluate_task_nll(val, model, TaskKind.MT_CAPTION, cfg)
    assert after <= before


@pytest.mark.parametrize("kind", list(TaskKind))
def test_evaluate_task_nll_builds_no_graph(world, monkeypatch, kind):
    # same value as the graph-building loss, to the last bit, and no
    # parameter's .grad is touched; batches of 3 split the 8 examples unevenly
    monkeypatch.setattr(op, "_EVAL_BATCH", 3)
    _, _, _, examples = world
    model = _model(world, seed=3)
    cfg = RunConfig()
    for p in model.params.values():
        p.grad = np.full(p.values.shape, 7.0)
    got = op.evaluate_task_nll(examples, model, kind, cfg)
    rng = np.random.default_rng(0)
    total, n = 0.0, 0
    for lo in range(0, len(examples), 3):
        batch = obj.build_task_batch(examples[lo:lo + 3], kind, rng, model, cfg)
        loss = obj.task_nll(batch, model)
        assert loss.parents  # the reference path does build a graph
        weight = sum(len(t) - 1 for t in batch.targets)
        total += loss.item() * weight
        n += weight
    assert got == total / n
    assert all((p.grad == 7.0).all() for p in model.params.values())


def test_empty_dataset_is_refused(world):
    model = _model(world)
    cfg = RunConfig()
    rng = np.random.default_rng(0)
    for run in (lambda: op.pretrain([], model, 1, cfg, rng),
                lambda: op.finetune([], model, TaskKind.MT_CAPTION, 1, cfg, rng),
                lambda: op.evaluate_task_nll([], model, TaskKind.MT_CAPTION, cfg)):
        with pytest.raises(ValueError, match="^empty dataset$"):
            run()


def test_t2i_finetune_includes_commitment(world):
    _, _, _, examples = world
    model = _model(world)
    records = op.finetune(examples[:4], model, TaskKind.MT_T2I, 1,
                          RunConfig(batch_size=4), np.random.default_rng(0))
    assert records[0].breakdown.present == {"l_mt_image", "l_com"}
    assert records[0].breakdown.l_com > 0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting is glibc's mallopt")
def test_training_step_reuses_its_memory():
    # a default-config step frees and reallocates the same buffers; with
    # the heap kept they are not faulted in again (~4,000 faults otherwise)
    import resource

    from duvlg.config import build_model

    cfg = RunConfig()
    model, vocab = build_model(cfg)
    examples = gen_dataset(cfg.batch_size, 0, model.codebook, cfg.grid_dims(), vocab)
    state = op.OptimState()
    batch = obj.build_task_batch(examples, TaskKind.DAE_IMAGE, np.random.default_rng(0),
                                 model, cfg)
    for _ in range(2):
        op._train_step(model, state, batch, cfg, cfg.alpha, cfg.lr)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        op._train_step(model, state, batch, cfg, cfg.alpha, cfg.lr)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3
    assert faults < 500, faults
