"""The benchmark's tracer (perfbench/tracer.py) wraps duvlg functions at the
module names callers look them up by.  Renaming or deleting one of them must
fail here, in the test suite, rather than in a benchmark run.  The decoding
workloads' outputs are pinned too, so a change meant to keep their bits
shows here when it does not."""

import ast
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load(monkeypatch, name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    targets = _load(monkeypatch, "perfbench_tracer", TRACER).targets()
    assert targets
    for owner, attr, span, _after in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, span)


BENCH_CALLERS = [TRACER.parent / "workloads.py", TRACER.parent / "run.py"]


def _duvlg_references(path):
    """(module, attribute) for every ``from duvlg.m import y`` in ``path``, and
    for every ``m.y`` where ``m`` was bound by ``from duvlg import m``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "duvlg":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"duvlg.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("duvlg."):
            refs += [(node.module, alias.name) for alias in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.append((modules[node.value.id], node.attr))
    return modules, refs


def test_every_name_the_benchmark_calls_resolves():
    # the workloads call duvlg directly (config.to_train_settings,
    # optim.pretrain, ...); a rename must fail here, not in a benchmark run
    seen = set()
    for path in BENCH_CALLERS:
        modules, refs = _duvlg_references(path)
        for module in modules.values():
            importlib.import_module(module)
        for module, attr in refs:
            assert hasattr(importlib.import_module(module), attr), (path.name, module, attr)
            seen.add(module)
    assert {"duvlg.config", "duvlg.optim", "duvlg.decoding", "duvlg.data",
            "duvlg.checkpoint"} <= seen


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded as is."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _load(monkeypatch, "hostref", TRACER.parent / "hostref.py")  # workloads imports it
        yield _load(monkeypatch, "perfbench_workloads", TRACER.parent / "workloads.py")


def test_one_request_of_every_workload_passes_its_check(workloads, tmp_path):
    # a changed signature or output of anything the workloads call fails here
    setup = workloads.set_up(0, 0.0, str(tmp_path))
    for name, cls in workloads.WORKLOADS.items():
        w = cls(setup)
        try:
            w.reset()
            item = w.items[0]
            assert w.check(item, w.op(item)) is None, name
        finally:
            w.close()


# sha256 of the workloads' outputs at seed 0: a caption round's 16 beam-5
# captions (the workload's digest lines), the first imagine request's
# token sequences, rerank index and scores in hex, and the log lines of a
# pretrain round's first 4 steps
_PINNED_CAPTION_ROUND = "ecb05edae9cccc322c2558c1aca0a5f0650f354fe91042ba349e79f62c843ee8"
_PINNED_IMAGINE_REQUEST = "939016f0a3dc5272ca11b8239992ec4ca4f33ac21bf25c8ebe47e7f538c750cf"
_PINNED_PRETRAIN_STEPS = "120552babd2f538f1af652bbbcf1d7a7ebba83bbd3eae334bbb2c6dd3e21c078"


@pytest.fixture(scope="module")
def decode_setup(workloads, tmp_path_factory):
    """The set-up at seed 0, which only the decoding workloads use (a
    pretrain request would train its model)."""
    return workloads.set_up(0, 0.0, str(tmp_path_factory.mktemp("bench")))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_caption_round_outputs_pinned(workloads, decode_setup):
    w = workloads.Caption(decode_setup)
    w.reset()
    assert len(w.items) == 16
    lines = [w.digest_line(w.op(ex)) for ex in w.items]
    assert _sha("\n".join(lines)) == _PINNED_CAPTION_ROUND


def test_imagine_request_outputs_pinned(workloads, decode_setup):
    w = workloads.Imagine(decode_setup)
    try:
        w.reset()
        out = w.op(w.items[0])
    finally:
        w.close()
    scores = " ".join(float(s).hex() for s in out[3])
    assert _sha(f"{w.digest_line(out)}|{scores}") == _PINNED_IMAGINE_REQUEST


def test_pretrain_steps_pinned(workloads, tmp_path):
    # the round resumes from the reloaded checkpoint's Adam state, whose
    # moments reset() zeroes in place; a set-up of its own, since it trains
    w = workloads.Pretrain(workloads.set_up(0, 0.0, str(tmp_path)))
    w.reset()
    lines = [w.digest_line(w.op(step)) for step in w.items[:4]]
    assert _sha("\n".join(lines)) == _PINNED_PRETRAIN_STEPS
