import warnings

import numpy as np
import pytest

from duvlg import checkpoint as ck
from duvlg import optim as op
from duvlg.cli import cli_dispatch
from duvlg.config import ConfigError, RunConfig, apply_overrides, build_model
from duvlg.corruption import blockwise_mask


SMALL = ["--set", "d_model=16", "--set", "n_heads=2", "--set", "d_ff=32",
         "--set", "image_size=16", "--set", "codebook_size=16", "--set", "d_feat=8",
         "--set", "d_code=8", "--set", "n_layers_enc=1", "--set", "n_layers_dec=1",
         "--set", "batch_size=2", "--set", "max_decode_len=8"]


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "pairs.tsv"
    assert cli_dispatch(["gen-data", "--out", str(path), "--n", "12"] + SMALL) == 0
    return path


def test_unknown_command_usage(capsys):
    assert cli_dispatch(["frobnicate"]) != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_usage(capsys):
    assert cli_dispatch(["gen-data", "--nope"]) != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_config_key_fails(tmp_path, capsys):
    rc = cli_dispatch(["gen-data", "--out", str(tmp_path / "x"), "--n", "2",
                       "--set", "blorp=1"])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_retired_dropout_key_is_unknown(tmp_path, capsys):
    rc = cli_dispatch(["gen-data", "--out", str(tmp_path / "x"), "--n", "2",
                       "--set", "dropout=0.1"])
    assert rc == 1
    assert "unknown config key 'dropout'" in capsys.readouterr().err


def _one_error_line(capsys, text):
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error:") and text in err[0], err


def test_pretrain_nan_lr_fails_in_one_line(tmp_path, data_file, capsys):
    ckpt = tmp_path / "nan.ckpt"
    rc = cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "3",
                       "--out", str(ckpt), "--set", "lr=nan"] + SMALL)
    assert rc == 1
    _one_error_line(capsys, "lr must be finite and > 0")
    assert not ckpt.exists()


def _dispatch_recording_warnings(argv):
    """``cli_dispatch(argv)`` and every warning it raised, none filtered."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli_dispatch(argv)
    return rc, caught


def test_pretrain_non_finite_loss_fails_in_one_line(tmp_path, data_file, capsys):
    # lr=1e300 overflows the first update; the next forward pass is non-finite
    ckpt = tmp_path / "nan.ckpt"
    rc, caught = _dispatch_recording_warnings(
        ["pretrain", "--data", str(data_file), "--steps", "3",
         "--out", str(ckpt), "--set", "lr=1e300"] + SMALL)
    assert rc == 1
    _one_error_line(capsys, "non-finite loss")
    assert not ckpt.exists()
    assert [str(w.message) for w in caught] == []


def test_pretrain_non_finite_gradient_fails_in_one_line(tmp_path, data_file, capsys, monkeypatch):
    # the loss check stops a diverged run before backward, so a non-finite
    # gradient behind a finite loss is injected: the first step's gradient
    # is poisoned before Adam reads it
    adam_step = op.adam_step

    def poison_then_step(model, state, cfg, lr):
        model.embed.grad[0, 0] = np.inf
        return adam_step(model, state, cfg, lr)

    monkeypatch.setattr("duvlg.optim.adam_step", poison_then_step)
    ckpt = tmp_path / "nan.ckpt"
    rc, caught = _dispatch_recording_warnings(
        ["pretrain", "--data", str(data_file), "--steps", "3",
         "--out", str(ckpt)] + SMALL)
    assert rc == 1
    _one_error_line(capsys, "non-finite gradient in 'embed' at step 0")
    assert not ckpt.exists()
    assert [str(w.message) for w in caught] == []


def test_pretrain_refuses_non_finite_checkpoint(tmp_path, data_file, capsys, monkeypatch):
    # no valid config reaches the save with non-finite parameters, so a
    # parameter is poisoned after training
    pretrain = op.pretrain

    def pretrain_then_poison(dataset, model, *args, **kwargs):
        out = pretrain(dataset, model, *args, **kwargs)
        model.embed.values[0, 0] = np.nan
        return out

    monkeypatch.setattr("duvlg.cli.op.pretrain", pretrain_then_poison)
    rc, caught = _dispatch_recording_warnings(
        ["pretrain", "--data", str(data_file), "--steps", "1",
         "--out", str(tmp_path / "nan.ckpt")] + SMALL)
    assert rc == 1
    _one_error_line(capsys, "non-finite values")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.tsv"]
    assert [str(w.message) for w in caught] == []


def test_pretrain_overflowing_gradient_norm_fails_at_the_step(tmp_path, data_file, capsys):
    # without clipping, lr=1e50 gives a finite step-1 gradient whose square
    # overflows; Adam's second moment used to turn inf and fail only at the save
    ckpt = tmp_path / "big.ckpt"
    rc, caught = _dispatch_recording_warnings(
        ["pretrain", "--data", str(data_file), "--steps", "6", "--out", str(ckpt),
         "--set", "lr=1e50", "--set", "clip_norm=0"] + SMALL)
    assert rc == 1
    _one_error_line(capsys, "non-finite global gradient norm at step 1")
    assert not ckpt.exists()
    assert [str(w.message) for w in caught] == []


def test_pretrain_unplaceable_mask_block_fails_in_one_line(tmp_path, data_file, capsys):
    # no 5-patch block fits the small config's 4x4 grid; the first inpainting
    # step used to draw rectangles forever
    ckpt = tmp_path / "block.ckpt"
    rc = cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "30",
                       "--out", str(ckpt), "--set", "min_block=5", "--set", "max_block=5"]
                      + SMALL)
    assert rc == 1
    _one_error_line(capsys, "no block of 5..5 patches")
    assert not ckpt.exists()


def test_unplaceable_mask_block_is_refused_before_building(tmp_path, data_file, capsys,
                                                          monkeypatch):
    # without inpainting steps (p_dae=0) such a run used to exit 0 and save a
    # checkpoint with which every later inpainting step fails
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("built a model despite an unplaceable mask block")

    monkeypatch.setattr("duvlg.cli.build_model", must_not_run)
    ckpt = tmp_path / "block.ckpt"
    rc = cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "3", "--out", str(ckpt),
                       "--set", "p_dae=0", "--set", "min_block=5", "--set", "max_block=5"]
                      + SMALL)
    assert rc == 1
    _one_error_line(capsys, "min_block and max_block: no block of 5..5 patches")
    assert not ckpt.exists()


def test_config_and_mask_share_the_block_check():
    with pytest.raises(ConfigError) as refused:
        RunConfig(image_size=16, min_block=5, max_block=5)
    with pytest.raises(ValueError) as unplaceable:
        blockwise_mask(4, 4, 0.5, np.random.default_rng(0), 5, 5, 0.3)
    assert str(refused.value) == f"min_block and max_block: {unplaceable.value}"


_OUT_OF_RANGE = ["seed=-1", "batch_size=0", "batch_size=-2", "lr=0", "lr=nan", "lr=inf", "t2i_lr=-1e-4",
                 "caption_lr=nan", "p_dae=1.5", "p_dae=-0.1", "image_mask_rate=2",
                 "text_mask_rate=nan", "val_frac=1.01", "top_p=0", "top_p=1.5",
                 "clip_norm=-1", "clip_norm=nan", "adam_eps=0", "adam_eps=-1e-8",
                 "adam_eps=nan", "adam_eps=inf", "adam_beta1=1", "adam_beta1=-0.1",
                 "adam_beta2=1", "adam_beta2=nan", "min_block=0", "max_block=3",
                 "aspect_min=0", "aspect_min=1.5", "aspect_min=nan", "span_lambda=-1",
                 "span_lambda=nan", "span_lambda=inf", "image_size=30", "image_size=0",
                 "patch_size=0", "beam_size=0", "top_k=0", "n_samples=0", "max_decode_len=0",
                 "temperature=0", "temperature=-1", "temperature=nan", "temperature=inf",
                 "length_norm=nan", "length_norm=inf", "length_norm=-inf", "alpha=-5",
                 "alpha=nan", "alpha=inf", "beta=-1", "beta=nan", "beta=inf"]


@pytest.fixture(scope="module")
def small_ckpt(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    data, ckpt = tmp / "pairs.tsv", tmp / "base.ckpt"
    assert cli_dispatch(["gen-data", "--out", str(data), "--n", "4"] + SMALL) == 0
    assert cli_dispatch(["pretrain", "--data", str(data), "--steps", "0", "--out", str(ckpt)]
                        + SMALL) == 0
    return ckpt


@pytest.mark.parametrize("setting", _OUT_OF_RANGE)
@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_out_of_range_config_fails_before_building(tmp_path, monkeypatch, capsys, small_ckpt,
                                                   command, setting):
    # finetune applies --set to the checkpoint's config, so it reads one
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("built or loaded a model despite a bad config")

    monkeypatch.setattr("duvlg.cli.build_model", must_not_run)
    if command == "finetune":
        source = ["--ckpt", str(small_ckpt), "--task", "caption", "--epochs", "1"]
    else:
        monkeypatch.setattr("duvlg.cli.load_checkpoint", must_not_run)
        source = ["--steps", "1"]
    capsys.readouterr()
    rc = cli_dispatch([command, "--data", str(tmp_path / "absent.tsv"),
                       "--out", str(tmp_path / "out.ckpt"), "--set", setting] + source)
    assert rc == 1
    _one_error_line(capsys, setting.split("=")[0] + " must be")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("setting", ["d_model=32", "n_layers_enc=2", "n_layers_dec=2", "n_heads=4",
                                     "d_ff=64", "max_text_len=30", "image_size=32", "patch_size=8",
                                     "codebook_size=32", "d_feat=16", "d_code=16"])
@pytest.mark.parametrize("command", ["resume", "finetune"])
def test_restoring_commands_refuse_shape_changes(tmp_path, monkeypatch, capsys, small_ckpt,
                                                 command, setting):
    # such a --set used to save a checkpoint whose header disagrees with its
    # parameter shapes, which no later command could load
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("loaded the data despite a shape change")

    monkeypatch.setattr("duvlg.cli._load_dataset", must_not_run)
    argv = ["pretrain", "--resume", str(small_ckpt), "--steps", "1"] if command == "resume" \
        else ["finetune", "--ckpt", str(small_ckpt), "--task", "caption", "--epochs", "1"]
    capsys.readouterr()
    rc = cli_dispatch(argv + ["--data", str(tmp_path / "absent.tsv"), "--out",
                              str(tmp_path / "out.ckpt"), "--log", str(tmp_path / "log.tsv"),
                              "--set", setting])
    assert rc == 1
    key, value = setting.split("=")
    stored = getattr(ck.load_checkpoint(small_ckpt).config, key)
    _one_error_line(capsys, f"shapes of a restored model: {key} {stored} -> {value}")
    assert list(tmp_path.iterdir()) == []


def test_restoring_commands_accept_unchanged_shape_keys(tmp_path, data_file, small_ckpt):
    out = tmp_path / "out.ckpt"
    assert cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1", "--resume",
                         str(small_ckpt), "--out", str(out), "--set", "d_model=16",
                         "--set", "image_size=16"]) == 0
    assert ck.load_checkpoint(out).config.d_model == 16


def test_eval_refuses_long_decoding_before_the_nll_passes(data_file, monkeypatch, capsys,
                                                          small_ckpt):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("ran a held-out NLL pass despite a too-long max_decode_len")

    monkeypatch.setattr("duvlg.cli.op.evaluate_task_nll", must_not_run)
    capsys.readouterr()
    rc = cli_dispatch(["eval", "--ckpt", str(small_ckpt), "--data", str(data_file),
                       "--set", "max_decode_len=40"])
    assert rc == 1
    _one_error_line(capsys,
                    "max_decode_len 40 needs 41 decoder positions; max decoder length is 26")


@pytest.mark.parametrize("command", ["finetune", "resume"])
def test_set_applies_to_the_checkpoint_config(tmp_path, data_file, capsys, command):
    # --set was checked against the defaults (min_block=4) before the
    # checkpoint's config, and max_block=3 was refused
    base, out = tmp_path / "base.ckpt", tmp_path / "out.ckpt"
    assert cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1", "--out", str(base),
                         "--set", "min_block=2"] + SMALL) == 0
    argv = ["pretrain", "--data", str(data_file), "--steps", "1", "--resume", str(base)] \
        if command == "resume" else ["finetune", "--data", str(data_file), "--ckpt", str(base),
                                     "--task", "caption", "--epochs", "1"]
    capsys.readouterr()
    assert cli_dispatch(argv + ["--out", str(out), "--set", "max_block=3"]) == 0
    assert "\nmin_block=2\nmax_block=3\n" in capsys.readouterr().out
    cfg = ck.load_checkpoint(out).config
    assert (cfg.min_block, cfg.max_block, cfg.d_model) == (2, 3, 16)


@pytest.mark.parametrize("edit, text", [
    (lambda h: h.pop("optim"), "header lacks ['optim']"),
    (lambda h: h["config"].update(batch_size="x"), "bad value 'x' for batch_size"),
])
def test_bad_checkpoint_header_fails_in_one_line(tmp_path, data_file, capsys, edit_header,
                                                 edit, text):
    base = tmp_path / "base.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "0",
                  "--out", str(base)] + SMALL)
    bad = tmp_path / "bad.ckpt"
    edit_header(base, bad, edit)
    capsys.readouterr()
    rc = cli_dispatch(["eval", "--ckpt", str(bad), "--data", str(data_file)])
    assert rc == 1
    _one_error_line(capsys, text)


def test_resume_refuses_out_of_range_step_count(tmp_path, data_file, capsys, edit_header,
                                                small_ckpt):
    # a negative step count would run Adam's bias correction at that step
    bad, out = tmp_path / "bad.ckpt", tmp_path / "out.ckpt"
    edit_header(small_ckpt, bad, lambda h: h["optim"].update(step_count=-3))
    capsys.readouterr()
    rc = cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1", "--resume", str(bad),
                       "--out", str(out)])
    assert rc == 1
    _one_error_line(capsys, "header 'optim.step_count' must be an integer in [0, 2**63), got -3")
    assert not out.exists()


@pytest.mark.parametrize("key, count", [("optim.step_count", 2**63), ("optim.step_count", 10**400),
                                        ("step", 2**63)])
def test_resume_refuses_a_step_count_beyond_int64(tmp_path, data_file, capsys, edit_header,
                                                  monkeypatch, small_ckpt, key, count):
    # such a count used to load; resuming then ran a whole forward and backward
    # pass and died in Adam's beta1**t with an OverflowError traceback
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("trained despite an out-of-range step count")

    monkeypatch.setattr("duvlg.cli.op.pretrain", must_not_run)
    bad, out = tmp_path / "bad.ckpt", tmp_path / "out.ckpt"
    edit_header(small_ckpt, bad, lambda h: h["optim"].update(step_count=count)
                if key == "optim.step_count" else h.update(step=count))
    capsys.readouterr()
    rc = cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1", "--resume", str(bad),
                       "--out", str(out)])
    assert rc == 1
    _one_error_line(capsys, f"header {key!r} must be an integer in [0, 2**63)")
    assert not out.exists()


def test_gen_data_writes_records(data_file):
    lines = data_file.read_text().strip().split("\n")
    assert len(lines) == 12
    assert all("\t" in line for line in lines)


def test_every_run_prints_resolved_config(data_file, capsys):
    cli_dispatch(["gen-data", "--out", str(data_file), "--n", "3"] + SMALL)
    out = capsys.readouterr().out
    assert "# resolved run config" in out
    assert "alpha=0.05" in out
    assert "d_model=16" in out


def test_pretrain_zero_steps_equals_init(tmp_path, data_file, capsys):
    ckpt = tmp_path / "zero.ckpt"
    rc = cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "0",
                       "--out", str(ckpt)] + SMALL)
    assert rc == 0
    loaded = ck.load_checkpoint(ckpt)
    cfg = apply_overrides(RunConfig(), [s for s in SMALL if s != "--set"])
    fresh, _ = build_model(cfg)
    assert loaded.step == 0
    for (na, pa), (_, pb) in zip(fresh.named_parameters(), loaded.model.named_parameters()):
        assert pa.values.tobytes() == pb.values.tobytes(), na


def test_pretrain_writes_log_and_checkpoint(tmp_path, data_file):
    ckpt = tmp_path / "m.ckpt"
    log = tmp_path / "train.log"
    rc = cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "4",
                       "--out", str(ckpt), "--log", str(log)] + SMALL)
    assert rc == 0
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "step\ttask\tl_total\tl_text\tl_image\tl_com\tgrad_norm"
    assert len(lines) == 1 + 4
    assert ck.load_checkpoint(ckpt).step == 4


def test_pretrain_resume_matches_straight(tmp_path, data_file):
    straight = tmp_path / "straight.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "6",
                  "--out", str(straight)] + SMALL)
    half = tmp_path / "half.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "3",
                  "--out", str(half)] + SMALL)
    full = tmp_path / "resumed.ckpt"
    rc = cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "3",
                       "--out", str(full), "--resume", str(half)])
    assert rc == 0
    a = ck.load_checkpoint(straight)
    b = ck.load_checkpoint(full)
    assert a.step == b.step == 6
    for (na, pa), (_, pb) in zip(a.model.named_parameters(), b.model.named_parameters()):
        assert pa.values.tobytes() == pb.values.tobytes(), na


def test_ablation_flags_round_trip(tmp_path, data_file):
    ckpt = tmp_path / "abl.ckpt"
    rc = cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "2",
                       "--out", str(ckpt), "--no-image-loss", "--no-commitment"] + SMALL)
    assert rc == 0
    cfg = ck.load_checkpoint(ckpt).config
    assert cfg.use_image_loss is False
    assert cfg.use_text_loss is True
    assert cfg.use_commitment is False


def test_set_alpha_round_trips_into_checkpoint(tmp_path, data_file):
    ckpt = tmp_path / "alpha.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1",
                  "--out", str(ckpt), "--set", "alpha=0.25"] + SMALL)
    assert ck.load_checkpoint(ckpt).config.alpha == 0.25


def test_finetune_caption_and_eval(tmp_path, data_file, capsys):
    base = tmp_path / "base.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "2",
                  "--out", str(base)] + SMALL)
    tuned = tmp_path / "tuned.ckpt"
    rc = cli_dispatch(["finetune", "--data", str(data_file), "--ckpt", str(base),
                       "--task", "caption", "--epochs", "1", "--out", str(tuned),
                       "--set", "caption_lr=0.001"])
    assert rc == 0
    rc = cli_dispatch(["eval", "--ckpt", str(tuned), "--data", str(data_file),
                       "--split", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "caption_nll\t" in out and "image_nll\t" in out
    assert "bleu4\t" in out and "exact_match\t" in out


@pytest.mark.parametrize("command, key", [("pretrain", "lr"), ("resume", "lr"),
                                          ("caption", "caption_lr"), ("t2i", "t2i_lr")])
def test_training_lr_is_the_printed_and_stored_config_value(tmp_path, data_file, capsys,
                                                           monkeypatch, command, key):
    # resuming used to print and store the new lr but train at the old one;
    # every Adam step must get the printed config and its phase's lr
    base, out = tmp_path / "base.ckpt", tmp_path / "out.ckpt"
    lr = ["--set", f"{key}=0.00123"]
    if command == "pretrain":
        argv = ["pretrain", "--data", str(data_file), "--steps", "2", "--out", str(out)]
        argv += lr + SMALL
    else:
        assert cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1",
                             "--out", str(base)] + SMALL) == 0
        argv = ["pretrain", "--data", str(data_file), "--steps", "1", "--resume", str(base)] \
            if command == "resume" else ["finetune", "--data", str(data_file), "--ckpt",
                                         str(base), "--task", command, "--epochs", "1"]
        argv += ["--out", str(out)] + lr
    calls = []
    adam_step = op.adam_step

    def recording_step(model, state, cfg, step_lr):
        calls.append((cfg, step_lr))
        return adam_step(model, state, cfg, step_lr)

    monkeypatch.setattr("duvlg.optim.adam_step", recording_step)
    capsys.readouterr()
    assert cli_dispatch(argv) == 0
    assert f"\n{key}=0.00123\n" in capsys.readouterr().out
    stored = ck.load_checkpoint(out).config
    assert getattr(stored, key) == 0.00123
    assert calls and calls == [(stored, 0.00123)] * len(calls)


@pytest.mark.parametrize("argv", [
    ["finetune", "--data", "d", "--ckpt", "c", "--task", "caption", "--epochs", "1",
     "--out", "o", "--lr", "0.001"],
    ["imagine", "--ckpt", "c", "--caption", "a", "--out-dir", "o", "--n", "3"],
])
def test_flags_that_bypassed_the_printed_config_are_gone(argv, capsys):
    # --set caption_lr=, t2i_lr= and n_samples= are printed and stored instead
    assert cli_dispatch(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_imagine_writes_samples_and_choice(tmp_path, data_file, capsys):
    base = tmp_path / "base.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1",
                  "--out", str(base)] + SMALL)
    out_dir = tmp_path / "samples"
    rc = cli_dispatch(["imagine", "--ckpt", str(base), "--caption",
                       "a red block at top left", "--set", "n_samples=5",
                       "--out-dir", str(out_dir)])
    assert rc == 0
    files = sorted(out_dir.glob("sample_*.duvlg"))
    assert len(files) == 5
    out = capsys.readouterr().out
    assert "rerank choice:" in out


def test_caption_command_runs(tmp_path, data_file, capsys):
    base = tmp_path / "base.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1",
                  "--out", str(base)] + SMALL)
    out_dir = tmp_path / "samples"
    cli_dispatch(["imagine", "--ckpt", str(base), "--caption",
                  "a red block at center", "--set", "n_samples=1", "--out-dir", str(out_dir)])
    capsys.readouterr()
    rc = cli_dispatch(["caption", "--ckpt", str(base), "--image",
                       str(out_dir / "sample_00.duvlg")])
    assert rc == 0
    last = capsys.readouterr().out.strip().split("\n")[-1]
    known = set("a block at and top bottom left right center red green blue yellow "
                "purple orange white black".split()) | {""}
    assert set(last.split()) <= known


def test_caption_rejects_nan_image(tmp_path, data_file, capsys):
    base = tmp_path / "base.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "0",
                  "--out", str(base)] + SMALL)
    image = tmp_path / "nan.duvlg"
    image.write_text("DUVLG-IMG v1 16 16\n" + " ".join(["nan"] * (16 * 16 * 3)) + "\n")
    capsys.readouterr()
    rc = cli_dispatch(["caption", "--ckpt", str(base), "--image", str(image)])
    assert rc == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]


@pytest.mark.parametrize("size, text", [(0, "H, W >= 1"), (4, "image is 4x4, the model reads 16x16")],
                         ids=["empty", "4x4"])
def test_caption_refuses_an_image_of_the_wrong_size(tmp_path, small_ckpt, capsys, size, text):
    image = tmp_path / "small.duvlg"
    image.write_text(f"DUVLG-IMG v1 {size} {size}\n" + " ".join(["0.5"] * (size * size * 3)) + "\n")
    capsys.readouterr()
    rc = cli_dispatch(["caption", "--ckpt", str(small_ckpt), "--image", str(image)])
    assert rc == 1
    _one_error_line(capsys, text)


@pytest.mark.parametrize("dims, n_floats", [("-1 -3", 9), ("0 4", 0), ("x 3", 9)],
                         ids=["negative", "zero", "non-integer"])
def test_caption_refuses_a_bad_image_header(tmp_path, small_ckpt, capsys, dims, n_floats):
    image = tmp_path / "bad.duvlg"
    image.write_text(f"DUVLG-IMG v1 {dims}\n" + " ".join(["0.5"] * n_floats) + "\n")
    capsys.readouterr()
    rc = cli_dispatch(["caption", "--ckpt", str(small_ckpt), "--image", str(image)])
    assert rc == 1
    _one_error_line(capsys, f"{image}: header needs integer H, W >= 1, got {dims}")


@pytest.mark.parametrize("caption", ["", "   "], ids=["empty", "blank"])
def test_imagine_refuses_an_empty_caption(tmp_path, small_ckpt, capsys, monkeypatch, caption):
    def no_model_call(*_args, **_kwargs):
        raise AssertionError("the model ran on an empty caption")
    monkeypatch.setattr("duvlg.decoding.generate_image", no_model_call)
    capsys.readouterr()
    rc = cli_dispatch(["imagine", "--ckpt", str(small_ckpt), "--caption", caption,
                       "--out-dir", str(tmp_path / "samples")])
    assert rc == 1
    _one_error_line(capsys, "--caption has no words")
    assert not (tmp_path / "samples").exists()


def test_imagine_refuses_a_caption_longer_than_max_text_len(tmp_path, small_ckpt, capsys,
                                                           monkeypatch):
    def no_model_call(*_args, **_kwargs):
        raise AssertionError("the model ran on an over-long caption")
    monkeypatch.setattr("duvlg.decoding.generate_image", no_model_call)
    capsys.readouterr()
    rc = cli_dispatch(["imagine", "--ckpt", str(small_ckpt), "--caption",
                       " ".join(["a red block at top left"] * 5),
                       "--out-dir", str(tmp_path / "samples")])
    assert rc == 1
    _one_error_line(capsys, "--caption has 30 words; the model reads at most max_text_len 24")
    assert not (tmp_path / "samples").exists()


@pytest.mark.parametrize("argv, flag", [
    (["pretrain", "--steps", "-5"], "--steps must be >= 0, got -5"),
    (["pretrain", "--steps", "-1", "--resume", "base.ckpt"], "--steps must be >= 0, got -1"),
    (["finetune", "--epochs", "-2", "--ckpt", "base.ckpt", "--task", "caption"],
     "--epochs must be >= 0, got -2"),
], ids=["pretrain", "resume", "finetune"])
def test_negative_step_counts_are_refused_before_loading(tmp_path, small_ckpt, capsys,
                                                        monkeypatch, argv, flag):
    # they used to save a checkpoint at a negative step, or an untrained one
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("loaded or built a model despite a negative count")

    monkeypatch.setattr("duvlg.cli.build_model", must_not_run)
    monkeypatch.setattr("duvlg.cli.load_checkpoint", must_not_run)
    argv = [str(small_ckpt) if a == "base.ckpt" else a for a in argv]
    capsys.readouterr()
    rc = cli_dispatch(argv + ["--data", str(tmp_path / "absent.tsv"),
                              "--out", str(tmp_path / "out.ckpt")])
    assert rc == 1
    _one_error_line(capsys, flag)
    assert list(tmp_path.iterdir()) == []


def test_config_with_checkpoint_command_rejected(tmp_path, data_file, capsys):
    base = tmp_path / "base.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1",
                  "--out", str(base)] + SMALL)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alpha=0.1\n")
    rc = cli_dispatch(["eval", "--ckpt", str(base), "--data", str(data_file),
                       "--config", str(cfg_file)])
    assert rc == 1
    assert "restores the checkpoint" in capsys.readouterr().err
