"""Bit-exact checkpoint serialization.

File layout (all integers little-endian):

    magic   b"DUVLGCKPT"
    version u32 (currently 1)
    hlen    u32, length of the JSON header in bytes
    header  JSON: run config, step, rng state, {"step_count": n} of the
            optimizer, and the ordered record manifest [[name, shape], ...]
    data    the records' float64 buffers, little-endian, concatenated in
            manifest order: parameters first, then Adam first/second moments

Loading rebuilds the model from the stored config (the frozen featurizer
and codebook regenerate from their named seeds) and overwrites every
parameter buffer byte-for-byte.  Adam's settings are the stored config's;
older headers also stored them under "optim", and those copies are ignored.
Files written while the tied embedding was two parameters, ``text_embed``
over ``visual_embed_dec``, still load: the two records' bytes, back to back,
are those of the one ``embed`` record.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, build_model, config_dict, config_from_dict
from .data import TextVocab
from .model import DuVlgModel
from .optim import OptimState

MAGIC = b"DUVLGCKPT"
VERSION = 1


class CheckpointError(ValueError):
    pass


class BadMagicError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedCheckpointError(CheckpointError):
    pass


class RecordShapeError(CheckpointError):
    pass


@dataclass
class LoadedCheckpoint:
    model: DuVlgModel
    optim: OptimState
    rng: np.random.Generator
    step: int
    config: RunConfig
    vocab: TextVocab


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _restore_rng(path, state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad rng state: {exc!r}") from None
    return rng


_HEADER_KEYS = ("config", "step", "rng_state", "optim", "records")


def _is_record(r) -> bool:
    """A manifest entry [name, shape] whose axes are positive integers (no
    parameter or moment has an empty axis; a scalar's shape is [])."""
    return (isinstance(r, list) and len(r) == 2 and isinstance(r[0], str)
            and isinstance(r[1], list) and all(type(n) is int and n >= 1 for n in r[1]))


def _check_header(path, header):
    """Every field ``load_checkpoint`` reads is present, with the type it needs,
    and the step counts are in range."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {missing}")
    if not isinstance(header["optim"], dict) or "step_count" not in header["optim"]:
        raise CheckpointError(f"{path}: header 'optim' lacks 'step_count'")
    if not isinstance(header["config"], dict):
        raise CheckpointError(f"{path}: header 'config' is not a JSON object")
    for name, count in (("optim.step_count", header["optim"]["step_count"]),
                        ("step", header["step"])):
        if type(count) is not int or not 0 <= count < 2**63:
            raise CheckpointError(
                f"{path}: header {name!r} must be an integer in [0, 2**63), got {count}")
    if not isinstance(header["records"], list) or not all(map(_is_record, header["records"])):
        raise CheckpointError(f"{path}: header 'records' is not a list of [name, shape] pairs")


def save_checkpoint(path, model: DuVlgModel, optim: OptimState,
                    rng: np.random.Generator, step: int, cfg: RunConfig):
    """Atomic write (temp file + rename).  Non-finite parameters or Adam
    moments raise ``CheckpointError`` before any file is opened."""
    records = []
    buffers = []
    for name, p in model.named_parameters():
        records.append([name, list(p.values.shape)])
        buffers.append(p.values)
    for kind, table in (("m", optim.m), ("v", optim.v)):
        for name, p in model.named_parameters():
            buf = table.get(name)
            if buf is None:
                buf = np.zeros_like(p.values)
            records.append([f"adam.{kind}.{name}", list(buf.shape)])
            buffers.append(buf)
    bad = [name for (name, _), buf in zip(records, buffers) if not np.isfinite(buf).all()]
    if bad:
        raise CheckpointError(f"{path}: not saved, {len(bad)} records hold non-finite "
                              f"values (first {bad[0]!r})")

    header = {
        "config": config_dict(cfg),
        "step": int(step),
        "rng_state": _rng_state(rng),
        "optim": {"step_count": optim.step_count},
        "records": records,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for buf in buffers:
            fh.write(np.ascontiguousarray(buf, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path) -> LoadedCheckpoint:
    """Reads one record at a time: a buffer of the whole file would raise peak
    memory by the file's size, and with heap trimming off (``autodiff``)
    leave a hole that size in the heap."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fixed = fh.read(len(MAGIC) + 8)
        if len(fixed) < len(MAGIC) + 8:
            raise TruncatedCheckpointError(f"{path}: shorter than the fixed header")
        if fixed[:len(MAGIC)] != MAGIC:
            raise BadMagicError(f"{path}: bad magic {fixed[:len(MAGIC)]!r}")
        version, hlen = struct.unpack_from("<II", fixed, len(MAGIC))
        if version != VERSION:
            raise VersionMismatchError(f"{path}: format version {version}, expected {VERSION}")
        if size < fh.tell() + hlen:
            raise TruncatedCheckpointError(f"{path}: truncated JSON header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8, bad JSON, or an int past the digit limit
            raise CheckpointError(f"{path}: unreadable header: {exc}") from None

        _check_header(path, header)
        rng = _restore_rng(path, header["rng_state"])
        cfg = config_from_dict(header["config"])
        model, vocab = build_model(cfg)
        optim = OptimState(step_count=header["optim"]["step_count"])

        arrays = {}
        for name, shape in header["records"]:
            shape = tuple(shape)
            nbytes = 8 * math.prod(shape)
            if size < fh.tell() + nbytes:
                raise TruncatedCheckpointError(f"{path}: record {name!r} is cut short")
            arrays[name] = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(shape).copy()
        if fh.tell() != size:
            raise CheckpointError(f"{path}: {size - fh.tell()} trailing bytes")
    for pre in ("", "adam.m.", "adam.v."):  # the two-record layout (module docstring)
        top, bottom = (arrays.pop(f"{pre}{n}", None) for n in ("text_embed", "visual_embed_dec"))
        if top is not None and bottom is not None and top.ndim == bottom.ndim == 2 \
                and top.shape[1] == bottom.shape[1]:
            arrays.setdefault(f"{pre}embed", np.concatenate((top, bottom)))

    for name, p in model.named_parameters():
        if name not in arrays:
            raise CheckpointError(f"{path}: missing parameter record {name!r}")
        if arrays[name].shape != p.values.shape:
            raise RecordShapeError(
                f"{path}: {name!r} has shape {arrays[name].shape}, model wants {p.values.shape}")
        p.values[...] = arrays[name]
        m, v = arrays.get(f"adam.m.{name}"), arrays.get(f"adam.v.{name}")
        if m is None or v is None:
            raise CheckpointError(f"{path}: missing optimizer moments for {name!r}")
        optim.m[name] = m
        optim.v[name] = v

    return LoadedCheckpoint(model=model, optim=optim, rng=rng, step=header["step"],
                            config=cfg, vocab=vocab)
