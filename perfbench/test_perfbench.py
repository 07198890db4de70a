"""Tests of the benchmark itself: span recording, the BENCHMARK.json
catalogue, and a smoke-sized run of every workload through its output
checks."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import NMSpMM
from repro.serve.server import InferenceServer

from . import forward, run, serve
from .layers import targets
from .report import Result
from .spans import SpanRecorder, instrument, self_times
from .traced import END_TO_END, PER_LAYER, fill_missing

ROOT = Path(__file__).resolve().parents[1]
SMOKE_SCALE = 16
SMOKE_DURATION_S = 0.05


def _assert_nested(spans):
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns


def _assert_self_times_close(rec: SpanRecorder):
    """Self times of each root's subtree sum to the root's duration,
    and agree with the recorder's running totals."""
    selfs = self_times(rec.spans)
    root_of = {}
    by_id = {span.span_id: span for span in rec.spans}
    for span in rec.spans:
        top = span
        while top.parent_id is not None:
            top = by_id[top.parent_id]
        root_of[span.span_id] = top.span_id
    subtree = {}
    for span_id, self_ns in selfs.items():
        subtree[root_of[span_id]] = subtree.get(root_of[span_id], 0) + self_ns
    for root_id, total in subtree.items():
        assert total == pytest.approx(by_id[root_id].duration_ns, rel=1e-9)
    assert sum(selfs.values()) == rec.total_self_ns == rec.root_ns


def test_recorder_nests_and_closes_self_time():
    rec = SpanRecorder(keep=True)

    def leaf():
        return sum(range(1000))

    def middle():
        return rec.call("leaf", leaf) + rec.call("leaf", leaf)

    for _ in range(3):
        rec.call("root", rec.call, "middle", middle)
    assert rec.get("root").calls == 3
    assert rec.get("leaf").calls == 6
    _assert_nested(rec.spans)
    _assert_self_times_close(rec)
    assert all(s.self_ns >= 0 for s in rec.stats.values())


def test_instrument_restores_every_target_even_on_error():
    before = {(t.owner, t.attr): vars(t.owner).get(t.attr) for t in targets()}
    with pytest.raises(RuntimeError):
        with instrument(SpanRecorder(), targets()):
            assert NMSpMM.execute is not before[(NMSpMM, "execute")]
            raise RuntimeError("boom")
    after = {(t.owner, t.attr): vars(t.owner).get(t.attr) for t in targets()}
    assert after == before
    assert "simulate" in vars(InferenceServer)


def test_traced_forward_spans_nest_and_close():
    executor = forward.build_executor(seed=3, scale=SMOKE_SCALE)
    x = np.random.default_rng(0).standard_normal((4, executor.hidden)).astype(np.float32)
    expected = executor.logits(x)
    kinds = {id(spec.layer): spec.kind for spec in executor.layers}
    rec = SpanRecorder(keep=True)
    with instrument(rec, targets(kinds)):
        got = rec.call("forward", executor.logits, x)
    np.testing.assert_array_equal(got, expected)
    assert rec.get("forward").calls == 1
    assert rec.get("api.execute").calls == len(executor.layers)
    assert rec.get("kernel").calls >= len(executor.layers)
    assert rec.counters["kernel.flops"] > 0
    _assert_nested(rec.spans)
    _assert_self_times_close(rec)


def test_dense_walk_matches_the_sparse_forward():
    executor = forward.build_executor(seed=5, scale=SMOKE_SCALE)
    weights = forward.dense_weights(executor)
    x = np.random.default_rng(1).standard_normal((3, executor.hidden)).astype(np.float32)
    np.testing.assert_allclose(
        forward.dense_logits(executor, weights, x), executor.logits(x), rtol=1e-5, atol=1e-5
    )


def test_result_counts_every_failed_check():
    result = Result()
    for ok in (True, False, True, False):
        result.check(ok, "x")
    summary = json.loads(result.render({}, ()).splitlines()[-1])
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (4, 2, False)


def test_summary_holds_only_the_summarised_metrics():
    result = Result()
    result.put("kept", 1.0, "x", "measured")
    result.put("shown", 2.0, "ms", "measured")
    lines = result.render({}, ["kept"]).splitlines()
    assert list(json.loads(lines[-1])["metrics"]) == ["kept"]
    assert any(line.startswith("shown") and "clock=measured  info" in line for line in lines)


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(forward.FORWARD_WORKLOADS) + list(serve.SERVE_WORKLOADS) == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _assert_summary(result: Result, expected: "list[str]"):
    summary = json.loads(result.render({"smoke": True}, expected).splitlines()[-1])
    assert summary["correct"], result.notes
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    assert sorted(summary["metrics"]) == sorted(expected)
    for metric in summary["metrics"].values():
        assert math.isfinite(metric["value"])
    return summary["metrics"]


@pytest.mark.parametrize("workload", list(forward.FORWARD_WORKLOADS))
def test_forward_workload_smoke(workload):
    untraced = forward.run_forward(workload, seed=2, seconds=0.01, trace=False, scale=SMOKE_SCALE)
    metrics = _assert_summary(untraced, [name for name, _ in END_TO_END])
    assert metrics["speedup_vs_baseline"]["value"] > 0
    traced = forward.run_forward(workload, seed=2, seconds=0.01, trace=True, scale=SMOKE_SCALE)
    fill_missing(traced)
    metrics = _assert_summary(traced, [name for name, _ in PER_LAYER])
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert sum(metrics[f"auto.choice.{b}"]["value"] for b in ("fast", "dense_scatter", "sharded", "structural")) == 5
    assert metrics["kernel.calls"]["value"] > 0


@pytest.mark.parametrize("workload", list(serve.SERVE_WORKLOADS))
def test_serve_workload_smoke(workload):
    untraced = serve.run_serve(workload, seed=2, seconds=0.01, trace=False, duration_s=SMOKE_DURATION_S)
    metrics = _assert_summary(untraced, [name for name, _ in END_TO_END])
    assert metrics["speedup_vs_baseline"]["value"] > 0
    assert untraced.metrics["throughput_per_s"].value > 0
    traced = serve.run_serve(workload, seed=2, seconds=0.01, trace=True, duration_s=SMOKE_DURATION_S)
    fill_missing(traced)
    metrics = _assert_summary(traced, [name for name, _ in PER_LAYER])
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["server.steps"]["value"] > 0
    if workload == "serve-model":
        assert metrics["kernel.calls"]["value"] == 0
    else:
        assert metrics["kernel.calls"]["value"] > 0
        assert metrics["obs.spans"]["value"] > 0


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
