"""Golden outputs: sha256 of every artifact a fixed-seed run produces.

A change that is meant to leave the numbers alone (a fusion, a memory or
scheduling change) must keep every hash.  A change that moves bits on
purpose updates the table below and says why.

The hashes hold for one BLAS build (numpy's bundled OpenBLAS) at any BLAS
thread count: products with a weight matrix are one GEMM over all rows, and
their bits do not change with the thread count at the default model's shapes
(``test_blas_threads.py``).  Another BLAS build may round differently.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from duvlg import checkpoint as ck
from duvlg import data as dat
from duvlg import decoding as dec
from duvlg.cli import cli_dispatch

# the default model, on a small batch and a short run
_SETTINGS = ["--set", "seed=7", "--set", "batch_size=4", "--set", "n_samples=4"]

_GOLDEN = {
    "pretrain_log": "074ac8cf048f37902e84a50a8866ba1467291c04c46306d80bafd10af64c4f20",
    "pretrain_ckpt": "527f4976a0776ccb475ca7104368edb0b617b0ad293a17514ffbf47533ffdd3f",
    "finetune_log": "e4eac018f03f2d85d6eacb658df418336938340179d55af9dc1a35346bf5385a",
    "caption_beam": "89e5eb1d11cf87e67f816e4cb325ced7dc33d8adf0cb37547fbf6ddd7beb232c",
    "caption_greedy": "6af1a8776e2340341f968bf6960fc344faca1974dfb595d840a0789e8869c63a",
    "caption_nucleus": "b8ede66e11b8236e76b435c03ef1b80cef7089e8e5355af5f81b4b7f1665f494",
    "caption_topk": "e5aa3d00aa4a5d8b6aad32a060d72481b22ba4052bf959d450317c2f76ff88fe",
    "image_tokens_nucleus": "3be7154b1ad8cb53a135351aaca9d6bc9c8e83eb7eb9df3590829fa04afc01a1",
    "rerank": "9c632eaa95579559fb1e9a3a0b3d8b659f0f259647beed61a0eb1a0a51b822f7",
    "caption_nll": "0x1.dcb1955a48af3p+1",
    "eval_metrics": "91c1c19af41745f1d3d658a835bd6b7924709222e4e6b8dcc0c2092a7ab65e64",
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _ids(tokens) -> bytes:
    return np.asarray(tokens, dtype="<i8").tobytes()


@pytest.fixture(scope="module")
def fingerprints(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    data, ckpt, tuned = tmp / "pairs.tsv", tmp / "m.ckpt", tmp / "tuned.ckpt"
    pre_log, ft_log = tmp / "pretrain.log", tmp / "finetune.log"
    assert cli_dispatch(["gen-data", "--out", str(data), "--n", "24"] + _SETTINGS) == 0
    assert cli_dispatch(["pretrain", "--data", str(data), "--steps", "24", "--out", str(ckpt),
                         "--log", str(pre_log)] + _SETTINGS) == 0
    assert cli_dispatch(["finetune", "--data", str(data), "--ckpt", str(ckpt), "--task",
                         "caption", "--epochs", "1", "--out", str(tuned),
                         "--log", str(ft_log)]) == 0
    out = {"pretrain_log": _sha(pre_log.read_bytes()),
           "pretrain_ckpt": _sha(ckpt.read_bytes()),
           "finetune_log": _sha(ft_log.read_bytes())}

    loaded = ck.load_checkpoint(ckpt)
    model, cfg = loaded.model, loaded.config
    examples = dat.load_dataset(data, model.codebook, cfg.grid_dims(), loaded.vocab,
                                cfg.max_text_len)
    for strategy in ("beam", "greedy", "nucleus", "topk"):
        tokens = dec.caption_image(model, examples[0].image, cfg, strategy,
                                   np.random.default_rng(11))
        out[f"caption_{strategy}"] = _sha(_ids(tokens))
    caption = examples[1].caption
    tokens = dec.generate_image_tokens(model, caption, cfg, np.random.default_rng(13), 64)
    out["image_tokens_nucleus"] = _sha(_ids(np.stack(tokens)))
    best, scores = dec.rerank(model, caption, [ex.image for ex in examples[:6]])
    out["rerank"] = _sha(" ".join([str(best)] + [float(s).hex() for s in scores]).encode())
    out["caption_nll"] = dec.caption_nll(model, examples[0].image, caption).hex()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli_dispatch(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
    metrics = stdout.getvalue().split("# end config\n", 1)[1]
    out["eval_metrics"] = _sha(metrics.encode())
    return out


@pytest.mark.parametrize("artifact", list(_GOLDEN))
def test_golden_output(fingerprints, artifact):
    assert fingerprints[artifact] == _GOLDEN[artifact]
