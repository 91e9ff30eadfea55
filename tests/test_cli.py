import warnings

import numpy as np
import pytest

from duvlg import checkpoint as ck
from duvlg import optim as op
from duvlg.cli import cli_dispatch
from duvlg.config import RunConfig, apply_overrides, build_model


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

    def poison_then_step(model, state):
        model.text_embed.grad[0, 0] = np.inf
        return adam_step(model, state)

    monkeypatch.setattr("duvlg.optim.adam_step", poison_then_step)
    ckpt = tmp_path / "nan.ckpt"
    rc, caught = _dispatch_recording_warnings(
        ["pretrain", "--data", str(data_file), "--steps", "3",
         "--out", str(ckpt)] + SMALL)
    assert rc == 1
    _one_error_line(capsys, "non-finite gradient in 'text_embed' at step 0")
    assert not ckpt.exists()
    assert [str(w.message) for w in caught] == []


def test_pretrain_refuses_non_finite_checkpoint(tmp_path, data_file, capsys, monkeypatch):
    # no valid config reaches the save with non-finite parameters, so a
    # parameter is poisoned after training
    pretrain = op.pretrain

    def pretrain_then_poison(dataset, model, *args, **kwargs):
        out = pretrain(dataset, model, *args, **kwargs)
        model.text_embed.values[0, 0] = np.nan
        return out

    monkeypatch.setattr("duvlg.cli.op.pretrain", pretrain_then_poison)
    rc, caught = _dispatch_recording_warnings(
        ["pretrain", "--data", str(data_file), "--steps", "1",
         "--out", str(tmp_path / "nan.ckpt")] + SMALL)
    assert rc == 1
    _one_error_line(capsys, "non-finite values")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.tsv"]
    assert [str(w.message) for w in caught] == []


_OUT_OF_RANGE = ["batch_size=0", "batch_size=-2", "lr=0", "lr=nan", "lr=inf", "t2i_lr=-1e-4",
                 "caption_lr=nan", "p_dae=1.5", "p_dae=-0.1", "image_mask_rate=2",
                 "text_mask_rate=nan", "val_frac=1.01", "top_p=0", "top_p=1.5",
                 "clip_norm=-1", "clip_norm=nan", "adam_eps=0", "adam_eps=-1e-8",
                 "adam_eps=nan", "adam_eps=inf", "adam_beta1=1", "adam_beta1=-0.1",
                 "adam_beta2=1", "adam_beta2=nan"]


@pytest.mark.parametrize("setting", _OUT_OF_RANGE)
@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_out_of_range_config_fails_before_building(tmp_path, monkeypatch, capsys,
                                                   command, setting):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("built or loaded a model despite a bad config")

    monkeypatch.setattr("duvlg.cli.build_model", must_not_run)
    monkeypatch.setattr("duvlg.cli.load_checkpoint", must_not_run)
    source = ["--ckpt", str(tmp_path / "absent.ckpt"), "--task", "caption", "--epochs", "1"] \
        if command == "finetune" else ["--steps", "1"]
    rc = cli_dispatch([command, "--data", str(tmp_path / "absent.tsv"),
                       "--out", str(tmp_path / "out.ckpt"), "--set", setting] + source)
    assert rc == 1
    _one_error_line(capsys, setting.split("=")[0] + " must be")
    assert list(tmp_path.iterdir()) == []


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
                       "--lr", "0.001"])
    assert rc == 0
    rc = cli_dispatch(["eval", "--ckpt", str(tuned), "--data", str(data_file),
                       "--split", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "caption_nll\t" in out and "image_nll\t" in out
    assert "bleu4\t" in out and "exact_match\t" in out


def test_imagine_writes_samples_and_choice(tmp_path, data_file, capsys):
    base = tmp_path / "base.ckpt"
    cli_dispatch(["pretrain", "--data", str(data_file), "--steps", "1",
                  "--out", str(base)] + SMALL)
    out_dir = tmp_path / "samples"
    rc = cli_dispatch(["imagine", "--ckpt", str(base), "--caption",
                       "a red block at top left", "--n", "5",
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
                  "a red block at center", "--n", "1", "--out-dir", str(out_dir)])
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
