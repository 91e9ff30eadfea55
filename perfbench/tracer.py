"""Span tracing from outside the program.

``install`` replaces public functions of the duvlg modules with wrappers that
open a span around each call.  A wrapper is installed at the name the caller
looks up: ``decoding`` and ``objectives`` import ``encode``,
``decode_forward``, ``encode_batch`` and ``decode_forward_batch`` by name, so
those wrappers go on ``duvlg.decoding.*`` and ``duvlg.objectives.*``.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

Spans are kept in memory and only recorded inside a request (the root span
the benchmark opens around one operation), so output checks run between
requests leave no spans.  Each span stores its self time: its duration minus
the time covered by its children.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass

ROOT = "bench.request"
GRAPH_WALK = "trace.graph_walk"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    self_time: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.requests = 0
        self._stack: list[list] = []  # open spans: [id, name, start, child_time]
        self._next_id = 0

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def begin(self, name: str):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self):
        span_id, name, start, child_time = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(Span(span_id, name, start, end,
                               parent[0] if parent is not None else None,
                               self.requests, duration - child_time))

    def begin_request(self):
        self.begin(ROOT)

    def end_request(self):
        self.end()
        self.requests += 1

    def write(self, path):
        """One JSON object per span: name, start, end, parent, request id."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, "self": s.self_time}) + "\n")


def graph_op_nodes(out, stop=None) -> tuple[int, int]:
    """(op nodes, bytes of their values) reachable from ``out`` through
    parent links.  Leaves (parameters, constants) are not op nodes; the walk
    does not descend into ``stop``, a graph built before the call."""
    seen = {id(stop)} if stop is not None else set()
    stack = [out]
    nodes = nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.parents:
            nodes += 1
            nbytes += t.values.nbytes
            stack.extend(t.parents)
    return nodes, nbytes


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(tracer, args, out)
        return out

    return traced


def _after_backward(tracer, args, _out):
    tracer.begin(GRAPH_WALK)
    nodes, nbytes = graph_op_nodes(args[0])
    tracer.end()
    tracer.counters["backward.calls"] += 1
    tracer.counters["backward.graph_nodes"] += nodes
    tracer.counters["backward.graph_bytes"] += nbytes


def _after_decode_forward(tracer, args, logits):
    teacher_forced = tracer.parent_name() == "decoding.caption_nll"
    tracer.begin(GRAPH_WALK)
    nodes, _ = graph_op_nodes(logits, stop=args[2])
    tracer.end()
    positions = logits.shape[0]
    c = tracer.counters
    c["decode_forward.calls"] += 1
    c["decode_forward.positions"] += positions
    # a search step needs only the last position; teacher forcing needs all
    c["decode_forward.new_positions"] += positions if teacher_forced else 1
    c["decode_forward.graph_nodes"] += nodes


def _after_nucleus_filter(tracer, _args, out):
    tracer.counters["nucleus_filter.calls"] += 1
    tracer.counters["nucleus_filter.support"] += len(out[0])


def targets():
    """(owner object, attribute, span name, after-hook) for every wrapper."""
    from duvlg import autodiff, codec, decoding, objectives, optim
    return [
        (optim, "pretrain", "optim.pretrain", None),
        (optim, "build_task_batch", "objectives.build_task_batch", None),
        (optim, "task_terms", "objectives.task_terms", None),
        (optim, "total_loss", "objectives.total_loss", None),
        (optim, "adam_step", "optim.adam_step", None),
        (autodiff, "backward", "autodiff.backward", _after_backward),
        (objectives, "encode_batch", "model.encode_batch", None),
        (objectives, "decode_forward_batch", "model.decode_forward_batch", None),
        (objectives, "loss_commitment", "objectives.loss_commitment", None),
        (objectives, "tokenize_image", "codec.tokenize_image", None),
        (objectives, "blockwise_mask", "corruption.blockwise_mask", None),
        (objectives, "span_infill", "corruption.span_infill", None),
        (codec.PatchFeaturizer, "featurize_image", "codec.featurize_image", None),
        (decoding, "caption_image", "decoding.caption_image", None),
        (decoding, "beam_search", "decoding.beam_search", None),
        (decoding, "encode", "model.encode", None),
        (decoding, "decode_forward", "model.decode_forward", _after_decode_forward),
        (decoding, "generate_image", "decoding.generate_image", None),
        (decoding, "generate_image_tokens", "decoding.generate_image_tokens", None),
        (decoding, "nucleus_filter", "decoding.nucleus_filter", _after_nucleus_filter),
        (decoding, "decode_tokens", "codec.decode_tokens", None),
        (decoding, "rerank", "decoding.rerank", None),
        (decoding, "caption_nll", "decoding.caption_nll", None),
    ]


def span_names() -> list[str]:
    return [ROOT, GRAPH_WALK] + [t[2] for t in targets()]


def install(tracer: Tracer) -> list:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    saved = []
    for owner, attr, name, after in targets():
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, after))
    return saved


def uninstall(saved: list):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
