"""The benchmark's tracer (perfbench/tracer.py) wraps duvlg functions at the
module names callers look them up by.  Renaming or deleting one of them must
fail here, in the test suite, rather than in a benchmark run."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    targets = tracer.targets()
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
