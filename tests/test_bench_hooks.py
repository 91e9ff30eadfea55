"""The benchmark's tracer (perfbench/tracer.py) wraps duvlg functions at the
module names callers look them up by.  Renaming or deleting one of them must
fail here, in the test suite, rather than in a benchmark run."""

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
