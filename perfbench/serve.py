"""``serve-model`` and ``serve-layer``: whole ``serve-sim`` runs.

Both are open loops: Poisson arrivals at 400 qps, generated ahead of
time by ``repro.serve.loadgen`` on the simulated clock.  Set-up builds
the scenario's server and a pool of short request traces sub-seeded
from ``--seed``; each repeat times one ``InferenceServer.simulate``
of the next trace on the host.  The first serve of every trace fills
the server's plan cache and is not timed, so the repeats measure the
warm engine a long ``serve-sim`` run spends its time in.  A trace
served again must give the same modeled summary as its first serve.
Each repeat is followed by one run of ``reference_task``, a fixed
pure-Python event loop: the simulator is interpreter work, whose speed
on a shared host drifts by up to 1.5x, and a repeat's wall time over
the reference run beside it does not.  Set-up is timed once more after
every pass over the pool.

* ``serve-model`` — ``serve-sim --model-mode``: llama-7b/16, 2 blocks,
  2:8/L8, kv-aware admission, numerics off.  No kernel runs.
* ``serve-layer`` — single-layer ``serve-sim``: attn-qkvo of
  llama-7b/16 with numerics on, slo-edf scheduling, continuous
  batching at decode fraction 0.5, 2 devices column-sharded over
  nvlink, and the program's own ``Tracer`` recording in memory.
"""

from __future__ import annotations

import heapq
import json
import time
from collections import Counter
from functools import partial
from typing import Any

import numpy as np

import repro.obs.export as export_module
from repro.errors import ServeError
from repro.model.baselines.cublas import simulate_cublas
from repro.obs.tracer import Tracer
from repro.serve.loadgen import generate_requests
from repro.serve.model_exec import ModelServingScenario
from repro.serve.scenarios import LlamaServingScenario
from repro.serve.server import InferenceServer, ServingReport
from repro.sparsity.config import NMPattern

from .layers import targets
from .report import MEASURED, MODELED, Result, median, peak_rss_mb, percentile
from .spans import SpanRecorder, instrument
from .traced import put_span_metrics, put_sparsity_metrics

__all__ = ["SERVE_WORKLOADS", "CONFIG", "run_serve", "scenario"]

PATTERN = NMPattern(2, 8, vector_length=8)
QPS = 400.0
#: Simulated seconds of arrivals per trace.
DURATION_S = 0.25
#: Traces in the pool.  One short trace's mix of request shapes varies
#: with its seed; cycling through many keeps a run's medians close to
#: the workload's mean mix.
TRACES = 16

CONFIG = {
    "serve-model": {"model": "llama-7b", "scale": 16, "blocks": 2, "pattern": "2:8/L8",
                    "kv_admission": "kv-aware", "numerics": False, "qps": QPS},
    "serve-layer": {"model": "llama-7b", "layer": "attn-qkvo", "scale": 16, "pattern": "2:8/L8",
                    "numerics": True, "sched": "slo-edf", "decode_fraction": 0.5, "devices": 2,
                    "shard": "column", "link": "nvlink", "tracer": "in-memory", "qps": QPS},
}
SERVE_WORKLOADS = tuple(CONFIG)

#: Tail percentile of a repeat's wall time over its trace's median, and
#: the repeats that leave at least ten samples beyond it; the loop runs
#: past ``--seconds`` until that count is reached.
TAIL_Q = 90
MIN_REPEATS = 100
MIN_TRACED_PAIRS = 3
#: Events in one run of the host reference task (about 10 ms).
REFERENCE_EVENTS = 8_000
#: Hard stop for the repeat loop, whatever the minimum count.
MAX_LOOP_S = 120.0
RTOL = ATOL = 1e-5

LATENESS_NOTE = (
    "open loop: arrivals are generated ahead of time on the simulated clock, so modeled "
    "latency is timed from each scheduled arrival and generator lateness is 0 by construction"
)


def scenario(workload: str, seed: int, duration_s: float = DURATION_S) -> Any:
    """The workload's scenario, as ``serve-sim`` would build it."""
    if workload == "serve-model":
        return ModelServingScenario(
            model="llama-7b", scale=16, blocks=2, pattern=PATTERN, qps=QPS,
            duration_s=duration_s, seed=seed, kv_admission="kv-aware",
        )
    return LlamaServingScenario(
        models=("llama-7b",), layer="attn-qkvo", scale=16, pattern=PATTERN, qps=QPS,
        duration_s=duration_s, seed=seed, execute_numerics=True, scheduling="slo-edf",
        continuous=True, decode_fraction=0.5, devices=2, shard="column", link="nvlink",
        tracer=Tracer(),
    )


def _set_up(sc: Any, rec: "SpanRecorder | None" = None) -> "tuple[InferenceServer, list[list]]":
    """Build the server and the trace pool, passing the load generator
    what each scenario's own ``run()`` passes it."""
    server, sources = sc.build_server()
    numerics = isinstance(sc, LlamaServingScenario) and sc.execute_numerics
    kwargs: "dict[str, Any]" = {"arrival": sc.arrival, "synthesize_activations": numerics}
    if isinstance(sc, LlamaServingScenario):
        kwargs["integer_values"] = sc.integer_values
    generate = generate_requests if rec is None else partial(rec.call, "loadgen.generate", generate_requests)
    traces = [
        generate(sources, sc.qps, sc.duration_s, seed=sc.seed * TRACES + i, **kwargs)
        for i in range(TRACES)
    ]
    return server, traces


def _check(result: Result, server: InferenceServer, requests: list, report: ServingReport) -> None:
    """Every submitted request terminates exactly once, and every
    completed output equals its activations times the pruned weights."""
    try:
        counts = report.metrics.reconcile()
        ok = sum(counts.values()) == len(requests) == report.metrics.submitted
    except ServeError:
        ok = False
    result.check(ok, "completed + shed + timed-out + failed != submitted")
    if not report.numerics:
        return
    dense = {}
    for name in server.model_names:
        handle = server.model(name).handle
        dense[name] = handle.dense()[: handle.k_logical, : handle.n_logical]
    for record in report.request_records:
        request = record.request
        out = record.output
        ok = out is not None and np.allclose(out, request.a @ dense[request.model], rtol=RTOL, atol=ATOL)
        result.check(bool(ok), f"request {request.request_id} output")


def _digest(report: ServingReport) -> str:
    """The run's modeled summary; the plan-cache counters are left out
    because the first run on a server fills the cache."""
    summary = report.summary()
    del summary["plan_cache"]
    return json.dumps(summary, sort_keys=True)


def _launches(report: ServingReport) -> int:
    """Engine launches of a run: dynamic batches plus continuous steps."""
    return len(report.metrics.batch_records) + len(report.metrics.step_records)


def _simulate(
    server: InferenceServer, requests: list, rec: "SpanRecorder | None" = None
) -> "tuple[float, ServingReport]":
    """One timed ``simulate()``, as the root span ``run`` when ``rec``
    is given; a server built with a tracer records into a fresh one,
    as each ``serve-sim`` run does."""
    if server.tracer is not None:
        server.tracer = Tracer()
    start = time.perf_counter()
    report = server.simulate(requests) if rec is None else rec.call("run", server.simulate, requests)
    return time.perf_counter() - start, report


def _first_serves(result: Result, server: InferenceServer, traces: "list[list]") -> "list[ServingReport]":
    """Serve every trace once, untimed, checking each run."""
    reports = []
    for requests in traces:
        report = _simulate(server, requests)[1]
        _check(result, server, requests, report)
        reports.append(report)
    return reports


def modeled_speedup_vs_dense(server: InferenceServer, reports: "list[ServingReport]") -> float:
    """The simulated A100's NM-SpMM speedup over its modeled cuBLAS
    SGEMM, summed over the runs' launches: each launch walks the served
    layers at its padded row count, priced on one device."""
    rows: "Counter[int]" = Counter()
    for report in reports:
        rows.update(b.padded_rows for b in report.metrics.batch_records)
        rows.update(s.padded_rows for s in report.metrics.step_records)
    sparse = dense = 0.0
    for name in server.model_names:
        entry = server.model(name)
        for sub in entry.layers or (entry,):
            handle = sub.handle
            for padded, count in rows.items():
                sparse += count * sub.op.predict(padded, handle=handle).seconds
                dense += count * simulate_cublas(padded, handle.n_logical, handle.k_logical, sub.op.gpu).seconds
    return dense / sparse


def run_serve(workload: str, seed: int, seconds: float, trace: bool, duration_s: float = DURATION_S) -> Result:
    result = Result(notes=[LATENESS_NOTE])
    if trace:
        _traced(result, workload, seed, seconds, duration_s)
    else:
        _untraced(result, workload, seed, seconds, duration_s)
    return result


def reference_task(events: int = REFERENCE_EVENTS) -> int:
    """The host reference: a fixed pure-Python event loop in the
    simulator's own idiom (a heap of timed events feeding per-queue
    batches).  It is the benchmark's code, so no change to the program
    moves it; only the host's speed does."""
    heap = [((i * 7919) % events, i) for i in range(events)]
    heapq.heapify(heap)
    queues: "dict[int, list[int]]" = {}
    served = 0
    while heap:
        t, i = heapq.heappop(heap)
        queue = queues.setdefault(i % 64, [])
        queue.append(t)
        if len(queue) == 4:
            served += sum(queue) % 7
            queue.clear()
    return served


def _untraced(result: Result, workload: str, seed: int, seconds: float, duration_s: float) -> None:
    setup_s: "list[float]" = []

    def set_up() -> "tuple[InferenceServer, list[list]]":
        start = time.perf_counter()
        built = _set_up(scenario(workload, seed, duration_s))
        setup_s.append(time.perf_counter() - start)
        return built

    server, traces = set_up()
    firsts = _first_serves(result, server, traces)
    references = [_digest(report) for report in firsts]
    expected = reference_task()
    walls: "list[list[float]]" = [[] for _ in traces]
    ratios: "list[list[float]]" = [[] for _ in traces]
    start = time.perf_counter()
    repeats = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and repeats >= MIN_REPEATS) or elapsed >= MAX_LOOP_S:
            break
        i = repeats % TRACES
        if i == 0 and repeats:
            # One more timed set-up per pass over the pool (its server
            # is dropped), so set-up time samples the whole run.
            set_up()
        wall, report = _simulate(server, traces[i])
        ref_start = time.perf_counter()
        served = reference_task()
        ref_s = time.perf_counter() - ref_start
        walls[i].append(wall)
        ratios[i].append(wall / ref_s)
        _check(result, server, traces[i], report)
        result.check(_digest(report) == references[i], f"trace {i} served again gave another modeled summary")
        result.check(served == expected, "the host reference task gave another result")
        repeats += 1

    # Traces differ in their mix of request shapes, so each trace's
    # repeats are summarised by their own median, and the medians are
    # pooled over the whole mix.  The tail is the pooled median scaled
    # by the p90 of each repeat's wall time over its trace's median.
    medians = [median(w) for w in walls]
    pooled_s = sum(medians)
    pooled_ref = sum(median(r) for r in ratios)
    steps = sum(_launches(report) for report in firsts)
    completed = sum(report.metrics.completed for report in firsts)
    jitter = [w / m for ws, m in zip(walls, medians, strict=True) for w in ws]
    n = f"{repeats} repeats over {TRACES} traces of {duration_s:g} simulated s"
    result.put("setup_s", median(setup_s), "s", MEASURED,
               f"server + {TRACES} traces of load generation, median of {len(setup_s)}, one per pass")
    result.put("speedup_vs_baseline", steps / pooled_ref, "x", MEASURED,
               f"engine steps per host-reference run: each repeat over the reference run after it, {n}")
    result.put("latency_ms_p50", pooled_s * 1e3 / steps, "ms", MEASURED, f"wall time per engine step, {n}")
    result.put("latency_ms_tail", pooled_s * 1e3 / steps * percentile(jitter, TAIL_Q), "ms", MEASURED,
               f"p{TAIL_Q} repeat over its trace's median, {n}, "
               f"{repeats - int(repeats * TAIL_Q / 100)} beyond")
    result.put("requests_per_s", completed / pooled_s, "1/s", MEASURED, "completed requests per wall s")
    result.put("throughput_per_s", steps / pooled_s, "1/s", MEASURED, "engine steps per wall s")
    result.put("modeled_speedup_vs_dense", modeled_speedup_vs_dense(server, firsts), "x", MODELED,
               "NM-SpMM over cuBLAS on the simulated A100, over the runs' launches")
    result.put("ok_share", 1.0 - result.failed / max(1, result.attempted), "share", MEASURED)
    result.put("peak_rss_mb", peak_rss_mb(), "MB", MEASURED)


def _traced(result: Result, workload: str, seed: int, seconds: float, duration_s: float) -> None:
    setup_rec = SpanRecorder()
    with instrument(setup_rec, targets()):
        _set_up(scenario(workload, seed, duration_s), setup_rec)
    put_sparsity_metrics(result, setup_rec, setups=1)
    result.put("loadgen.generate_s", setup_rec.get("loadgen.generate").mean_us / 1e6, "s", MEASURED, "per trace")

    server, traces = _set_up(scenario(workload, seed, duration_s))
    _first_serves(result, server, traces)
    # Untraced and traced simulate() of the same trace, alternating;
    # the ratio of their summed wall times is the tracing overhead.
    rec = SpanRecorder()
    untraced_s = traced_s = 0.0
    steps = pairs = 0
    guard = None
    start = time.perf_counter()
    while pairs < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        requests = traces[pairs % TRACES]
        untraced_s += _simulate(server, requests)[0]
        with instrument(rec, targets()):
            wall, report = _simulate(server, requests, rec)
            if server.tracer is not None:
                export_module.chrome_trace(server.tracer)
        traced_s += wall
        _check(result, server, requests, report)
        steps += _launches(report)
        pairs += 1
        if guard is None:
            guard, tracer = report, server.tracer
    summary = guard.summary()
    launches = summary["launches"]
    put_span_metrics(result, rec, ops=steps)
    result.put("server.steps", steps / pairs, "count", MEASURED, "launches per simulate()")
    result.put("server.self_us_per_step", rec.get("server.simulate").self_ns / steps / 1e3, "us", MEASURED)
    result.put("cache.hit_ratio", summary["plan_cache"]["hit_rate"], "share", MEASURED, "warm server")
    # Modeled guards, from the first trace: a change made only for
    # speed leaves every one of them exactly as it was.
    result.put("batcher.rows_mean", summary["mean_batch_rows"], "rows", MODELED)
    result.put("batcher.padding_share", summary["padding_overhead"], "share", MODELED)
    result.put("queue.wait_ms_p99", summary["queue_wait"]["p99_ms"], "ms", MODELED)
    result.put("serve.modeled_latency_ms_p99", summary["latency"]["p99_ms"], "ms", MODELED, "from scheduled arrival")
    result.put("memory.kv_evictions", guard.metrics.kv_evictions, "count", MODELED)
    result.put("memory.preemptions", summary["continuous"]["preemptions"], "count", MODELED)
    if tracer is not None:
        result.put("obs.spans", len(tracer.spans) / launches, "count", MEASURED, "per step")
        result.put("obs.events", len(tracer.events) / launches, "count", MEASURED, "per step")
    result.put("trace.overhead_ratio", traced_s / untraced_s, "x", MEASURED, f"{pairs} simulate() calls each way")
