"""duvlg benchmark: one closed-loop workload per run, from the repository root.

    python3 perfbench/run.py --workload caption --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  The timings
it reports as metrics are request costs: each request's time divided by the
time of a fixed reference computation (``hostref.py``) run during it, which
cancels the drift in speed of a shared host.  The times are printed too.
``--trace 1`` runs half the time untraced and half traced, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced median
request time); the spans go to ``perfbench/out/``.  Metric names, units and
directions come from ``BENCHMARK.json``.  The last line of standard output is
the JSON result; a full report is written next to the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, duvlg.cli; "
                "print(time.perf_counter() - t0)")


def blas_threads() -> int:
    """At most nproc BLAS threads, or fewer if the environment asks."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            n = min(n, int(os.environ[var]))
    return n


def import_seconds(repeats: int) -> float:
    """Median time, over ``repeats`` fresh interpreters, to import numpy and
    every duvlg module a command loads."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def source_sha256() -> str:
    """Hash of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for d in (os.path.join(SRC, "duvlg"), HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def digest_record(workload: str, seed: int, src_sha: str, digest: str) -> bool:
    """Store this run's digest, or compare with the one an earlier run of the
    same workload, seed and sources stored.  True when they differ."""
    d = os.path.join(OUT, "digests")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{workload}-seed{seed}-{src_sha[:16]}.txt")
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip() != digest
    with open(path, "w") as fh:
        fh.write(digest + "\n")
    return False


def named_metrics(w, stats: dict, quality: float) -> list:
    """The end-to-end figures under the names users know, with units."""
    ms = lambda s: None if s is None else 1e3 * s  # noqa: E731
    if w.name == "pretrain":
        return [("pretrain.steps_per_s", 1 / stats["mean"], "steps/s"),
                ("pretrain.step_p50_ms", ms(stats["p50"]), "ms"),
                ("pretrain.step_p90_ms", ms(stats["p90"]), "ms"),
                ("pretrain.loss_final", quality, "nats")]
    if w.name == "caption":
        return [("caption.captions_per_s", 1 / stats["mean"], "captions/s"),
                ("caption.latency_p50_ms", ms(stats["p50"]), "ms"),
                ("caption.latency_p90_ms", ms(stats["p90"]), "ms")]
    tokens = w.decode_cfg.n_samples * w.s.model.cfg.max_patches
    return [("imagine.latency_p50_s", stats["p50"], "s"),
            ("imagine.image_tokens_per_s", tokens / stats["mean"], "tokens/s")]


def layer_metrics(tr, base: dict, traced: dict, setup) -> dict:
    """Per-layer figures from the traced phase; self times are per request
    (per pretrain step), except caption_nll, which is per candidate."""
    n = max(tr.requests, 1)
    self_s, calls, inclusive = {}, {}, {}
    for s in tr.spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_time
        calls[s.name] = calls.get(s.name, 0) + 1
        inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
    m = {f"{name}.self_ms": 1e3 * self_s.get(name, 0.0) / n for name in tracer.span_names()}
    m["decoding.caption_nll.self_ms"] = (1e3 * self_s.get("decoding.caption_nll", 0.0)
                                         / max(calls.get("decoding.caption_nll", 0), 1))
    c = tr.counters
    ratio = lambda a, b: c[a] / c[b] if c[b] else 0.0  # noqa: E731
    m["autodiff.graph_nodes_per_step"] = ratio("backward.graph_nodes", "backward.calls")
    m["autodiff.graph_mb_per_step"] = ratio("backward.graph_bytes", "backward.calls") / 2**20
    m["autodiff.graph_nodes_per_call"] = ratio("decode_forward.graph_nodes", "decode_forward.calls")
    m["model.decode_forward.calls_per_request"] = c["decode_forward.calls"] / n
    m["model.decode_forward.positions_per_request"] = c["decode_forward.positions"] / n
    m["decoding.useful_position_ratio"] = ratio("decode_forward.new_positions",
                                                "decode_forward.positions")
    m["decoding.nucleus_support_mean"] = ratio("nucleus_filter.support", "nucleus_filter.calls")
    m["decoding.rerank_share"] = inclusive.get("decoding.rerank", 0.0) / inclusive[tracer.ROOT]
    m["trace.overhead_ms"] = 1e3 * (traced["p50"] - base["p50"])
    m["trace.overhead_share"] = traced["p50"] / base["p50"] - 1
    m["trace.spans_per_request"] = len(tr.spans) / n
    m.update(setup.timings)
    return m


def emit(values: dict, declared: list) -> dict:
    """Values for exactly the metrics BENCHMARK.json declares, with units."""
    names = [d["name"] for d in declared]
    if set(values) != set(names):
        raise RuntimeError(f"not in BENCHMARK.json: {sorted(set(values) - set(names))}; "
                           f"not computed: {sorted(set(names) - set(values))}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "caption", "imagine"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "duvlg", "__init__.py")):
        print(f"error: duvlg sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    threads = blas_threads()
    for var in BLAS_VARS:
        os.environ[var] = str(threads)  # read when numpy loads BLAS
    sys.path.insert(0, SRC)
    import numpy
    import duvlg.cli  # noqa: F401  (every module a command loads)
    if not os.path.abspath(duvlg.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported duvlg from {duvlg.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from duvlg.config import config_dict

    os.makedirs(OUT, exist_ok=True)
    setup = workloads.set_up(args.seed, import_seconds(workloads.SETUP_REPEATS), OUT)
    w = workloads.WORKLOADS[args.workload](setup)
    try:
        if args.trace:
            base = workloads.run_phase(w, args.seconds / 2)
            tr = tracer.Tracer()
            saved = tracer.install(tr)
            try:
                traced = workloads.run_phase(w, args.seconds / 2, tr)
            finally:
                tracer.uninstall(saved)
            phases = [base, traced]
        else:
            phases = [workloads.run_phase(w, args.seconds)]
    finally:
        w.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = phases[0]
    stats = workloads.weighted_stats(first.times(), w.kind_weights)
    cost = workloads.weighted_stats(first.costs(), w.kind_weights)
    refs = [ref for _, _, ref in first.samples]
    ref_ms = 1e3 * statistics.median(refs) if refs else math.nan
    src_sha = source_sha256()
    digests = [d for ph in phases for d in ph.digests]
    mismatches = sum(d != digests[0] for d in digests)
    mismatches += digest_record(args.workload, args.seed, src_sha, digests[0])
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)

    if args.trace:
        traced_stats = workloads.weighted_stats(phases[1].times(), w.kind_weights)
        values = layer_metrics(tr, stats, traced_stats, setup)
        declared = spec["per_layer"]
    else:
        values = {"setup_s": setup.setup_s, "peak_rss_mb": peak_rss_mb,
                  "op_p50_ref": cost["p50"], "op_mean_ref": cost["mean"],
                  "quality_nats": first.quality}
        declared = spec["end_to_end"]
    metrics = emit(values, declared)

    named = [("setup_s", setup.setup_s, "s"), ("peak_rss_mb", peak_rss_mb, "MB")]
    named += named_metrics(w, stats, first.quality)
    named += [(f"{w.name}.ops_attempted", attempted, "count"),
              (f"{w.name}.ops_failed", failed, "count"),
              ("host.ref_p50_ms", ref_ms, "ms")]
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(), "source_sha256": src_sha,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "numpy": numpy.__version__, "python": platform.python_version(),
            "run_config": config_dict(setup.cfg)}
    report = {"meta": meta,
              "named": {k: {"value": v, "unit": u} for k, v, u in named},
              "timing_s": stats, "cost_ref": cost, "digest": digests[0], "rounds": len(digests),
              "digest_mismatches": mismatches, "errors": [e for ph in phases for e in ph.errors][:5],
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr.write(os.path.join(OUT, f"spans-{stem}.jsonl"))
    with open(os.path.join(OUT, f"report-{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# meta {json.dumps(meta)}")
    for k, v, u in named:
        shown = "unavailable (fewer than 100 samples)" if v is None else f"{v:.6g} {u}"
        print(f"{k} = {shown}")
    tail = stats["tail_pct"]
    if tail is not None:
        print(f"{w.name}.tail = p{tail} {1e3 * stats['tail']:.6g} ms over n={stats['n']}")
    print(f"digest {digests[0]} over {len(digests)} rounds, {mismatches} mismatches")
    for err in report["errors"]:
        print(f"error: {err.strip().splitlines()[-1]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and mismatches == 0 and all(math.isfinite(m["value"])
                                                      for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
