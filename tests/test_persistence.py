import re
import struct

import numpy as np
import pytest

from duvlg import checkpoint as ck
from duvlg import config as cf
from duvlg import optim as op
from duvlg.config import RunConfig, apply_overrides, build_model, format_config, load_config
from duvlg.data import gen_dataset


SMALL = ["d_model=16", "n_heads=2", "d_ff=32", "image_size=16", "codebook_size=16",
         "d_feat=8", "d_code=8", "n_layers_enc=1", "n_layers_dec=1", "batch_size=2"]


def _small_cfg(extra=()):
    return apply_overrides(RunConfig(), SMALL + list(extra))


def _dataset(cfg, model, n=6):
    from duvlg.data import TextVocab
    return gen_dataset(n, 1, model.codebook, cfg.grid_dims(), TextVocab())


def test_config_defaults_mirror_protocol():
    cfg = RunConfig()
    assert cfg.alpha == 0.05 and cfg.beta == 1.0 and cfg.p_dae == 0.6
    assert cfg.clip_norm == 1.0 and cfg.beam_size == 5 and cfg.top_k == 50
    assert cfg.top_p == 0.9 and cfg.n_samples == 16
    assert cfg.image_mask_rate == 0.5 and cfg.text_mask_rate == 0.5
    assert cfg.span_lambda == 3.0
    assert cfg.t2i_lr == 1e-4 and cfg.caption_lr == 3e-5


def test_config_file_roundtrip(tmp_path):
    cfg = apply_overrides(RunConfig(), ["alpha=0.1", "use_commitment=false", "seed=7"])
    path = tmp_path / "run.cfg"
    path.write_text(format_config(cfg) + "\n# trailing comment\n")
    loaded = load_config(path)
    assert loaded == cfg


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(cf.ConfigError, match="unknown config key"):
        apply_overrides(RunConfig(), ["alhpa=0.1"])
    path = tmp_path / "bad.cfg"
    path.write_text("no equals sign here\n")
    with pytest.raises(cf.ConfigError):
        load_config(path)


def test_config_rejects_bad_values():
    with pytest.raises(cf.ConfigError):
        apply_overrides(RunConfig(), ["d_model=sixty"])
    with pytest.raises(cf.ConfigError):
        apply_overrides(RunConfig(), ["use_commitment=perhaps"])
    with pytest.raises(cf.ConfigError):
        apply_overrides(RunConfig(), ["alpha"])


def test_config_range_bounds_are_inclusive_where_documented():
    cfg = apply_overrides(RunConfig(), ["batch_size=1", "p_dae=0", "image_mask_rate=1",
                                        "text_mask_rate=0", "val_frac=1", "top_p=1",
                                        "clip_norm=0", "adam_beta1=0", "adam_beta2=0"])
    assert cfg.batch_size == 1 and cfg.top_p == 1.0 and cfg.clip_norm == 0.0
    assert cfg.adam_beta1 == cfg.adam_beta2 == 0.0
    with pytest.raises(cf.ConfigError, match="batch_size must be >= 1"):
        RunConfig(batch_size=0)
    with pytest.raises(cf.ConfigError, match="batch_size must be >= 1"):
        cf.config_from_dict({**cf.config_dict(RunConfig()), "batch_size": 0})


def test_grid_dims_divisibility():
    with pytest.raises(cf.ConfigError):
        apply_overrides(RunConfig(), ["image_size=30"]).grid_dims()


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = _small_cfg(["alpha=0.05"])
    model, vocab = build_model(cfg)
    optim = op.OptimState()
    rng = np.random.default_rng(3)
    rng.random(5)  # advance the stream
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, model, optim, rng, step=12, cfg=cfg)
    loaded = ck.load_checkpoint(path)
    assert loaded.step == 12
    assert loaded.config == cfg  # --set values round-trip
    for (na, pa), (nb, pb) in zip(model.named_parameters(), loaded.model.named_parameters()):
        assert na == nb
        assert pa.values.tobytes() == pb.values.tobytes()
    assert loaded.rng.bit_generator.state == rng.bit_generator.state
    assert loaded.rng.random() == rng.random()


def test_checkpoint_preserves_moments(tmp_path):
    cfg = _small_cfg()
    model, vocab = build_model(cfg)
    dataset = _dataset(cfg, model)
    optim = op.OptimState()
    op.pretrain(dataset, model, 3, cfg, np.random.default_rng(0),
                optim=optim)
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, model, optim, np.random.default_rng(0), 3, cfg)
    loaded = ck.load_checkpoint(path)
    assert loaded.optim.step_count == 3
    for name in optim.m:
        assert np.array_equal(optim.m[name], loaded.optim.m[name])
        assert np.array_equal(optim.v[name], loaded.optim.v[name])


def test_split_resume_equals_straight_through(tmp_path):
    cfg = _small_cfg()

    model_a, _ = build_model(cfg)
    optim_a = op.OptimState()
    rng_a = np.random.default_rng(cfg.seed)
    dataset = _dataset(cfg, model_a)
    op.pretrain(dataset, model_a, 6, cfg, rng_a, optim=optim_a)

    model_b, _ = build_model(cfg)
    optim_b = op.OptimState()
    rng_b = np.random.default_rng(cfg.seed)
    op.pretrain(dataset, model_b, 3, cfg, rng_b, optim=optim_b)
    path = tmp_path / "half.ckpt"
    ck.save_checkpoint(path, model_b, optim_b, rng_b, 3, cfg)
    loaded = ck.load_checkpoint(path)
    op.pretrain(dataset, loaded.model, 3, cfg, loaded.rng,
                optim=loaded.optim, start_step=loaded.step)

    for (na, pa), (_, pb) in zip(model_a.named_parameters(),
                                 loaded.model.named_parameters()):
        assert pa.values.tobytes() == pb.values.tobytes(), na


def test_checkpoint_error_taxonomy(tmp_path):
    cfg = _small_cfg()
    model, _ = build_model(cfg)
    optim = op.OptimState()
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, model, optim, np.random.default_rng(0), 0, cfg)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT" + blob[9:])
    with pytest.raises(ck.BadMagicError):
        ck.load_checkpoint(bad)

    bad.write_bytes(blob[:9] + (99).to_bytes(4, "little") + blob[13:])
    with pytest.raises(ck.VersionMismatchError):
        ck.load_checkpoint(bad)

    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ck.TruncatedCheckpointError):
        ck.load_checkpoint(bad)

    bad.write_bytes(blob[:4])
    with pytest.raises(ck.TruncatedCheckpointError):
        ck.load_checkpoint(bad)


def test_checkpoint_shape_mismatch(tmp_path):
    import json
    import struct

    cfg = _small_cfg()
    model, _ = build_model(cfg)
    optim = op.OptimState()
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, model, optim, np.random.default_rng(0), 0, cfg)
    blob = path.read_bytes()
    hlen = struct.unpack_from("<II", blob, 9)[1]
    header = json.loads(blob[17:17 + hlen])
    # swap one parameter's declared shape; keep byte count identical
    for rec in header["records"]:
        if rec[0] == "patch_proj":
            rec[1] = [rec[1][1], rec[1][0]]
    new_header = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:9] + struct.pack("<II", 1, len(new_header)) + new_header
                    + blob[17 + hlen:])
    with pytest.raises(ck.RecordShapeError):
        ck.load_checkpoint(bad)


def test_checkpoint_atomic_no_partial_file(tmp_path):
    # failed save must not leave a corrupt target in place
    cfg = _small_cfg()
    model, _ = build_model(cfg)
    path = tmp_path / "missing" / "m.ckpt"
    with pytest.raises(OSError):
        ck.save_checkpoint(path, model, op.OptimState(), np.random.default_rng(0), 0, cfg)
    assert not path.exists()


def _saved(tmp_path):
    cfg = _small_cfg()
    model, _ = build_model(cfg)
    path = tmp_path / "m.ckpt"
    ck.save_checkpoint(path, model, op.OptimState(),
                       np.random.default_rng(0), 0, cfg)
    return path, model, cfg


def test_checkpoint_with_retired_dropout_key_loads(tmp_path, edit_header):
    # headers written before the dropout key was removed still load, unchanged
    path, model, cfg = _saved(tmp_path)
    old = tmp_path / "old.ckpt"
    edit_header(path, old, lambda h: h["config"].update(dropout=0.0))
    loaded = ck.load_checkpoint(old)
    assert loaded.config == cfg
    for (na, pa), (_, pb) in zip(model.named_parameters(), loaded.model.named_parameters()):
        assert pa.values.tobytes() == pb.values.tobytes(), na


def test_checkpoint_in_two_table_layout_loads(tmp_path, edit_header):
    # before the tied embedding was one parameter, it was saved as two
    # records, text_embed over visual_embed_dec, whose bytes are embed's
    cfg = _small_cfg()
    model, _ = build_model(cfg)
    optim = op.OptimState()
    op.pretrain(_dataset(cfg, model), model, 2, cfg, np.random.default_rng(0), optim=optim)
    path, old = tmp_path / "m.ckpt", tmp_path / "old.ckpt"
    ck.save_checkpoint(path, model, optim, np.random.default_rng(0), 2, cfg)
    split = model.cfg.first_visual_id

    def two_records(header):
        records = []
        for name, shape in header["records"]:
            if name in ("embed", "adam.m.embed", "adam.v.embed"):
                pre = name[:-len("embed")]
                records += [[pre + "text_embed", [split, shape[1]]],
                            [pre + "visual_embed_dec", [shape[0] - split, shape[1]]]]
            else:
                records.append([name, shape])
        header["records"] = records

    edit_header(path, old, two_records)
    assert old.read_bytes().count(b'"visual_embed_dec"') == 1
    loaded = ck.load_checkpoint(old)
    for name, p in loaded.model.named_parameters():
        assert p.values.tobytes() == model.params[name].values.tobytes(), name
        assert loaded.optim.m[name].tobytes() == optim.m[name].tobytes(), name
        assert loaded.optim.v[name].tobytes() == optim.v[name].tobytes(), name


def test_checkpoint_with_adam_settings_in_its_header_loads(tmp_path, edit_header):
    # headers once stored lr, beta1, beta2, eps and clip_norm beside
    # step_count; training reads them from the stored config, so these
    # copies are ignored, even out of range
    cfg = _small_cfg()
    model, _ = build_model(cfg)
    optim = op.OptimState()
    op.pretrain(_dataset(cfg, model), model, 2, cfg, np.random.default_rng(0), optim=optim)
    path, old = tmp_path / "m.ckpt", tmp_path / "old.ckpt"
    ck.save_checkpoint(path, model, optim, np.random.default_rng(0), 2, cfg)
    assert b'"optim": {"step_count": 2}' in path.read_bytes()
    edit_header(path, old, lambda h: h["optim"].update(lr=float("nan"), beta1=1.5, beta2=0.999,
                                                       eps=-1, clip_norm="x"))
    loaded = ck.load_checkpoint(old)
    assert loaded.optim.step_count == 2 and loaded.config == cfg
    for name, p in loaded.model.named_parameters():
        assert p.values.tobytes() == model.params[name].values.tobytes(), name
        assert loaded.optim.m[name].tobytes() == optim.m[name].tobytes(), name
        assert loaded.optim.v[name].tobytes() == optim.v[name].tobytes(), name


@pytest.mark.parametrize("shape", [[2**32, 2**32], [2**32 + 1, 2**32 - 1]])
def test_record_larger_than_int64_bytes_is_truncated(tmp_path, edit_header, shape):
    # the element count used to wrap in int64 to a 0-byte record, and numpy's
    # reshape raised instead of an error naming the file
    path, _, _ = _saved(tmp_path)
    bad = tmp_path / "bad.ckpt"
    edit_header(path, bad, lambda h: h["records"].__setitem__(0, ["patch_proj", shape]))
    with pytest.raises(ck.TruncatedCheckpointError, match="'patch_proj' is cut short"):
        ck.load_checkpoint(bad)


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("config"),
    lambda h: h.pop("step"),
    lambda h: h.pop("rng_state"),
    lambda h: h.pop("optim"),
    lambda h: h.pop("records"),
    lambda h: h["optim"].pop("step_count"),
    lambda h: h.update(optim=[]),
    lambda h: h["optim"].update(step_count=None),
    lambda h: h.update(step="0"),
    lambda h: h.update(step=True),
    lambda h: h.update(config=None),
    lambda h: h.update(records={}),
    lambda h: h["records"].__setitem__(0, [1, 2]),
    lambda h: h["records"].__setitem__(0, ["patch_proj"]),
    lambda h: h["records"].__setitem__(0, ["patch_proj", [-1, 2]]),
    lambda h: h["records"].__setitem__(0, ["patch_proj", "ab"]),
    lambda h: h.update(rng_state={}),
    lambda h: h.update(rng_state="x"),
    # out of range: negative, fractional or beyond int64 step counts
    lambda h: h["optim"].update(step_count=-3),
    lambda h: h["optim"].update(step_count=2.5),
    lambda h: h.update(step=-7),
    lambda h: h["optim"].update(step_count=2**63),
    lambda h: h["optim"].update(step_count=10**400),
    lambda h: h.update(step=2**63),
    lambda h: h["optim"].update(step_count=True),
    lambda h: h["optim"].update(step_count=float("inf")),
    # empty axes: 0 bytes passed the size check, and numpy's reshape raised
    lambda h: h["records"].__setitem__(0, ["patch_proj", [0, 2**70]]),
    lambda h: h["records"].__setitem__(0, ["patch_proj", [0, 2**62, 2**62]]),
])
def test_checkpoint_header_schema(tmp_path, edit_header, edit):
    path, _, _ = _saved(tmp_path)
    bad = tmp_path / "bad.ckpt"
    edit_header(path, bad, edit)
    with pytest.raises(ck.CheckpointError, match=re.escape(str(bad))):
        ck.load_checkpoint(bad)


def test_header_integer_past_the_digit_limit_names_the_file(tmp_path, edit_header):
    # json.loads refuses an int of more than 4300 digits with a plain ValueError
    path, _, _ = _saved(tmp_path)
    bad = tmp_path / "bad.ckpt"
    edit_header(path, bad, lambda h: h.update(step="STEP"))
    blob = bad.read_bytes()
    hlen = struct.unpack_from("<II", blob, 9)[1]
    header = blob[17:17 + hlen].replace(b'"STEP"', b"9" * 5000)
    bad.write_bytes(blob[:9] + struct.pack("<II", 1, len(header)) + header + blob[17 + hlen:])
    with pytest.raises(ck.CheckpointError, match=re.escape(f"{bad}: unreadable header")):
        ck.load_checkpoint(bad)


@pytest.mark.parametrize("key, value", [("batch_size", "x"), ("d_model", 16.0),
                                        ("d_model", True), ("alpha", "0.1"),
                                        ("alpha", False), ("use_commitment", 1)])
def test_config_from_dict_type_checks(key, value):
    with pytest.raises(cf.ConfigError, match=key):
        cf.config_from_dict({**cf.config_dict(RunConfig()), key: value})
    assert cf.config_from_dict({"alpha": 1, "seed": 3}) == RunConfig(alpha=1, seed=3)
