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
and codebook regenerate from their named seeds), requires the stored
manifest to equal the rebuilt model's, and reads every record into its
buffer byte-for-byte.  Adam's settings are the stored config's; older
headers also stored them under "optim", and those copies are ignored.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RunConfig, build_model, config_dict, config_from_dict
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


def _records(model: DuVlgModel, optim: OptimState) -> list:
    """The (name, array) pairs in file order: parameters, then Adam's first
    and second moments, zeros for moments not yet allocated."""
    records = [(name, p.values) for name, p in model.named_parameters()]
    for kind, table in (("m", optim.m), ("v", optim.v)):
        for name, p in model.named_parameters():
            buf = table[name] if name in table else np.zeros_like(p.values)
            records.append((f"adam.{kind}.{name}", buf))
    return records


def save_checkpoint(path, model: DuVlgModel, optim: OptimState,
                    rng: np.random.Generator, step: int, cfg: RunConfig):
    """Atomic write (temp file + rename).  Non-finite parameters or Adam
    moments raise ``CheckpointError`` before any file is opened."""
    records = _records(model, optim)
    bad = [name for name, buf in records if not np.isfinite(buf).all()]
    if bad:
        raise CheckpointError(f"{path}: not saved, {len(bad)} records hold non-finite "
                              f"values (first {bad[0]!r})")

    header = {
        "config": config_dict(cfg),
        "step": int(step),
        "rng_state": _rng_state(rng),
        "optim": {"step_count": optim.step_count},
        "records": [[name, list(buf.shape)] for name, buf in records],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blob)))
        fh.write(blob)
        for _, buf in records:
            fh.write(np.ascontiguousarray(buf, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path) -> LoadedCheckpoint:
    """Reads each record straight into its buffer: a buffer of the whole file
    would raise peak memory by the file's size, and with heap trimming off
    (``autodiff``) leave a hole that size in the heap."""
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
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an int past the
            # digit limit, or arrays nested past the recursion limit
            raise CheckpointError(f"{path}: unreadable header: {exc}") from None

        _check_header(path, header)
        rng = _restore_rng(path, header["rng_state"])
        try:
            cfg = config_from_dict(header["config"])
            model, vocab = build_model(cfg)
        except ConfigError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        optim = OptimState(step_count=header["optim"]["step_count"])
        for name, p in model.named_parameters():
            optim.m[name], optim.v[name] = np.zeros_like(p.values), np.zeros_like(p.values)
        records = _records(model, optim)
        manifest = [[name, list(buf.shape)] for name, buf in records]
        if header["records"] != manifest:
            got = header["records"] if isinstance(header["records"], list) else [header["records"]]
            i = next((i for i, (a, b) in enumerate(zip(got, manifest)) if a != b),
                     min(len(got), len(manifest)))
            entry, want = (r[i] if i < len(r) else "no record" for r in (got, manifest))
            raise RecordShapeError(f"{path}: manifest entry {i} is {entry}, the model's is {want}")
        data, need = size - fh.tell(), sum(buf.nbytes for _, buf in records)
        if data < need:
            raise TruncatedCheckpointError(f"{path}: {data} data bytes, the records need {need}")
        if data > need:
            raise CheckpointError(f"{path}: {data - need} trailing bytes")
        for _, buf in records:
            fh.readinto(buf)
            if buf.dtype != np.dtype("<f8"):  # a big-endian host
                buf.byteswap(inplace=True)

    return LoadedCheckpoint(model=model, optim=optim, rng=rng, step=header["step"],
                            config=cfg, vocab=vocab)
