"""A fixed reference computation that gauges how fast the host runs code
like duvlg's at the moment it is measured, and a timer that runs it while
a workload runs.

The benchmark runs on a few cores of a shared host whose speed changes
within a second with what its neighbours do.  A request's time divided by
the reference's time, taken during the request, cancels most of that drift.
The reference has the character of duvlg's hot path (an eager reverse-mode
graph of small float64 numpy operations, built, walked backwards and
dropped), but it is frozen: it imports nothing from duvlg, so no change to
the program can move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

WIDTH = 64
DEPTH = 24
ROWS = 8
PROBE_INTERVAL_S = 0.05
WARMUP_RUNS = 20


class _Node:
    __slots__ = ("value", "grad", "parents", "back")

    def __init__(self, value, parents=(), back=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.back = back


def _matmul(a, b):
    def back(g):
        return g @ b.value.T, a.value.T @ g
    return _Node(a.value @ b.value, (a, b), back)


def _add(a, b):
    def back(g):
        return g, g.sum(axis=0)
    return _Node(a.value + b.value, (a, b), back)


def _tanh(a):
    y = np.tanh(a.value)

    def back(g):
        return (g * (1.0 - y * y),)
    return _Node(y, (a,), back)


def _softmax_rows(a):
    z = np.exp(a.value - a.value.max(axis=1, keepdims=True))
    y = z / z.sum(axis=1, keepdims=True)

    def back(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)
    return _Node(y, (a,), back)


class Reference:
    """``run()`` builds a DEPTH-layer graph over a ROWS x WIDTH input, runs
    it backwards and returns its own duration in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.weights = [(_Node(rng.standard_normal((WIDTH, WIDTH)) / 8),
                         _Node(rng.standard_normal(WIDTH) / 8)) for _ in range(DEPTH)]
        self.x = rng.standard_normal((ROWS, WIDTH))

    def run(self) -> float:
        t0 = time.perf_counter()
        h = _Node(self.x)
        order = []
        for k, (w, b) in enumerate(self.weights):
            h = _add(_matmul(h, w), b)
            order.append(h.parents[0])
            order.append(h)
            h = _softmax_rows(h) if k % 4 == 3 else _tanh(h)
            order.append(h)
        h.grad = np.ones_like(h.value)
        for node in reversed(order):
            for parent, g in zip(node.parents, node.back(node.grad)):
                parent.grad = g if parent.grad is None else parent.grad + g
        for w, b in self.weights:
            w.grad = b.grad = None
        return time.perf_counter() - t0


class Probe:
    """Within ``with``, a SIGALRM timer runs the reference every
    PROBE_INTERVAL_S, at whatever point the program has reached (Python runs
    the handler between bytecodes), and records (start, end, reference
    seconds) of each run."""

    def __init__(self):
        self.ref = Reference()
        for _ in range(WARMUP_RUNS):
            self.ref.run()
        self.runs = []

    def _fire(self, _signum, _frame):
        start = time.perf_counter()
        ref_s = self.ref.run()
        self.runs.append((start, time.perf_counter(), ref_s))

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def pair(self, t0: float, t1: float) -> tuple[float, float]:
        """For a request timed from t0 to t1: its time less the reference
        runs inside it, and the harmonic mean of the reference runs that
        started within PROBE_INTERVAL_S of it.  Runs are sampled evenly in
        time, so the harmonic mean weighs the host's speed over the request
        as its work does.  NaN when no run is near."""
        inside = sum(end - start for start, end, _ in self.runs if t0 <= start and end <= t1)
        near = [ref_s for start, _, ref_s in self.runs
                if t0 - PROBE_INTERVAL_S <= start <= t1 + PROBE_INTERVAL_S]
        ref = len(near) / sum(1 / r for r in near) if near else float("nan")
        return t1 - t0 - inside, ref
