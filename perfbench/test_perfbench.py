"""Self-test of the benchmark; run from the repository root with

    python3 -m pytest perfbench -q

Each workload runs briefly, untraced and traced, as the benchmark's own
command.  The test checks the result line against BENCHMARK.json, the
metrics each workload must move, and the span bookkeeping.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hostref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
SEED = 7

# end-to-end figures printed by name, per workload
NAMED = {
    "pretrain": ["pretrain.steps_per_s", "pretrain.step_p50_ms", "pretrain.step_p90_ms",
                 "pretrain.loss_final"],
    "caption": ["caption.captions_per_s", "caption.latency_p50_ms", "caption.latency_p90_ms"],
    "imagine": ["imagine.latency_p50_s", "imagine.image_tokens_per_s"],
}
SETUP = ["config.build_model_s", "data.gen_dataset_s", "checkpoint.save_s", "checkpoint.load_s"]
# per-layer metrics that must be non-zero on the workload that exercises them
ACTIVE = {
    "pretrain": SETUP + [
        "autodiff.backward.self_ms", "autodiff.graph_nodes_per_step", "autodiff.graph_mb_per_step",
        "model.encode_batch.self_ms", "model.decode_forward_batch.self_ms",
        "objectives.loss_commitment.self_ms", "optim.adam_step.self_ms",
        "objectives.build_task_batch.self_ms", "codec.featurize_image.self_ms",
        "codec.tokenize_image.self_ms", "corruption.blockwise_mask.self_ms",
        "corruption.span_infill.self_ms"],
    "caption": SETUP + [
        "autodiff.graph_nodes_per_call", "model.encode.self_ms", "model.decode_forward.self_ms",
        "model.decode_forward.calls_per_request", "model.decode_forward.positions_per_request",
        "decoding.useful_position_ratio", "decoding.beam_search.self_ms"],
    "imagine": SETUP + [
        "autodiff.graph_nodes_per_call", "model.encode.self_ms", "model.decode_forward.self_ms",
        "model.decode_forward.calls_per_request", "model.decode_forward.positions_per_request",
        "decoding.useful_position_ratio", "decoding.nucleus_filter.self_ms",
        "decoding.nucleus_support_mean", "decoding.rerank.self_ms", "decoding.caption_nll.self_ms",
        "decoding.rerank_share", "codec.decode_tokens.self_ms"],
}
# ones that must stay zero where the layer sits idle
IDLE = {
    "pretrain": ["model.decode_forward.self_ms", "decoding.beam_search.self_ms",
                 "autodiff.graph_nodes_per_call"],
    "caption": ["autodiff.backward.self_ms", "optim.adam_step.self_ms",
                "autodiff.graph_nodes_per_step"],
    "imagine": ["autodiff.backward.self_ms", "optim.adam_step.self_ms",
                "autodiff.graph_nodes_per_step"],
}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                             "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_follows_the_schema():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split(" = ")[0] for line in proc.stdout.splitlines() if " = " in line}
    expected = ["setup_s", "peak_rss_mb", "host.ref_p50_ms", f"{workload}.ops_attempted",
                f"{workload}.ops_failed"] + NAMED[workload]
    assert set(expected) <= printed
    assert "0 mismatches" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layer_metrics_and_spans(workload):
    result = result_of(run(workload, 1))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert [n for n in ACTIVE[workload] if not metrics[n]["value"] > 0] == []
    assert [n for n in IDLE[workload] if metrics[n]["value"] != 0] == []

    spans = {}
    with open(os.path.join(HERE, "out", f"spans-{workload}-seed{SEED}-trace1.jsonl")) as fh:
        for line in fh:
            s = json.loads(line)
            spans.setdefault(s["request"], []).append(s)
    assert spans
    for request in spans.values():
        by_id = {s["id"]: s for s in request}
        (root,) = [s for s in request if s["parent"] is None]
        for s in request:
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        total_self = sum(s["self"] for s in request)
        assert total_self == pytest.approx(root["end"] - root["start"], rel=1e-6, abs=1e-7)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_runs_the_reference_on_a_timer_and_pairs_requests():
    saved = signal.getsignal(signal.SIGALRM)
    with hostref.Probe() as probe:
        end = time.perf_counter() + 6 * hostref.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.runs) >= 3 and signal.getsignal(signal.SIGALRM) is saved

    probe.runs = [(0.00, 0.001, 0.001), (0.05, 0.052, 0.002), (0.30, 0.301, 0.004)]
    busy, ref = probe.pair(0.04, 0.2)
    assert busy == pytest.approx(0.16 - 0.002)  # the run inside is left out
    assert ref == pytest.approx(2 / (1 / 0.001 + 1 / 0.002))  # the third run is too far
