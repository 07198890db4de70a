"""Per-layer metrics read off a traced run's spans.

``PER_LAYER`` is the full catalogue a traced run prints, on every
workload; a layer the workload never enters reads 0 (``kernel.calls``
is 0 on ``serve-model``, where no kernel runs).  Counts are per
operation: per forward on ``decode``/``prefill``, per engine step on
the serve workloads.
"""

from __future__ import annotations

from .layers import BACKEND_CHOICES, LAYER_KINDS
from .report import MEASURED, MODELED, Result
from .spans import SpanRecorder

__all__ = ["END_TO_END", "PER_LAYER", "put_span_metrics", "put_sparsity_metrics", "fill_missing"]

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
#: An untraced run also prints its absolute latencies and rates, but
#: they are left out of the JSON summary: on a shared host they move
#: with the host's speed by more than any usable bound, while each
#: operation's time over a same-run baseline timed beside it does not.
END_TO_END = (
    ("setup_s", "s"),
    ("speedup_vs_baseline", "x"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("sparsity.prune_s", "s"),
    ("sparsity.compress_s", "s"),
    ("sparsity.gather_layout_s", "s"),
    ("api.execute.calls", "count"),
    ("api.build_request_us", "us"),
    ("api.facade_self_us", "us"),
    ("auto.explain_us", "us"),
    *((f"auto.choice.{name}", "count") for name in BACKEND_CHOICES),
    ("auto.regret_max", "x"),
    ("auto.regret_geomean", "x"),
    ("backend.run_self_ms", "ms"),
    ("kernel.calls", "count"),
    ("kernel.ms", "ms"),
    ("kernel.gflops_useful", "GFLOP/s"),
    ("kernel.bytes_computed_mb", "MB"),
    ("kernel.flops_per_byte", "flop/B"),
    ("dense.gemm_gflops", "GFLOP/s"),
    *((f"layer.{kind}.ms", "ms") for kind in LAYER_KINDS),
    *((f"layer.{kind}.speedup_vs_dense", "x") for kind in LAYER_KINDS),
    ("model_exec.stack_seconds.calls", "count"),
    ("model_exec.stack_seconds_us", "us"),
    ("server.steps", "count"),
    ("server.self_us_per_step", "us"),
    ("cache.lookup.calls", "count"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "share"),
    ("plan.simulate.calls", "count"),
    ("plan.simulate_us", "us"),
    ("loadgen.generate_s", "s"),
    ("batcher.rows_mean", "rows"),
    ("batcher.padding_share", "share"),
    ("queue.wait_ms_p99", "ms"),
    ("serve.modeled_latency_ms_p99", "ms"),
    ("memory.kv_evictions", "count"),
    ("memory.preemptions", "count"),
    ("obs.spans", "count"),
    ("obs.events", "count"),
    ("obs.record_us", "us"),
    ("obs.export_s", "s"),
    ("distributed.collective.calls", "count"),
    ("backend.sharded.run_ms", "ms"),
    ("trace.overhead_ratio", "x"),
)

#: Per-layer metrics on the simulator's clock; every other one is
#: measured on the host.
MODELED_GUARDS = frozenset(
    {
        "batcher.rows_mean",
        "batcher.padding_share",
        "queue.wait_ms_p99",
        "serve.modeled_latency_ms_p99",
        "memory.kv_evictions",
        "memory.preemptions",
    }
)


def put_sparsity_metrics(result: Result, rec: SpanRecorder, *, setups: int) -> None:
    """The offline phase's cost per construction."""
    for name in ("prune", "compress", "gather_layout"):
        seconds = rec.get(f"sparsity.{name}").total_ns / 1e9 / setups
        result.put(f"sparsity.{name}_s", seconds, "s", MEASURED, "per construction")


def put_span_metrics(result: Result, rec: SpanRecorder, *, ops: int) -> None:
    """Metrics every workload reads the same way from its spans;
    ``ops`` is the operation count counts are normalised by."""
    execute = rec.get("api.execute")
    facade_self = sum(rec.get(n).self_ns for n in ("api.execute", "api.build_request", "api.run"))
    kernel = rec.get("kernel")
    flops = rec.counters.get("kernel.flops", 0.0)
    nbytes = rec.counters.get("kernel.bytes", 0.0)
    sharded = rec.matching("backend.sharded.")
    put = result.put
    put("api.execute.calls", execute.calls / ops, "count", MEASURED, "per op")
    put("api.build_request_us", rec.get("api.build_request").mean_us, "us", MEASURED, "per call")
    put("api.facade_self_us", facade_self / max(1, execute.calls) / 1e3, "us", MEASURED, "per execute")
    put("auto.explain_us", rec.get("auto.explain").mean_us, "us", MEASURED, "per call")
    backend_self = sum(
        s.self_ns for n, s in rec.stats.items() if n.startswith("backend.") and n.endswith(".run")
    )
    put("backend.run_self_ms", backend_self / ops / 1e6, "ms", MEASURED, "per op")
    put("kernel.calls", kernel.calls / ops, "count", MEASURED, "per op")
    put("kernel.ms", kernel.total_ns / ops / 1e6, "ms", MEASURED, "per op")
    put("kernel.gflops_useful", flops / kernel.total_ns if kernel.total_ns else 0.0, "GFLOP/s", MEASURED,
        "flops computed from shapes")
    put("kernel.bytes_computed_mb", nbytes / ops / 1e6, "MB", MEASURED, "per op, computed from shapes")
    put("kernel.flops_per_byte", flops / nbytes if nbytes else 0.0, "flop/B", MEASURED, "computed")
    stack = rec.get("model_exec.stack_seconds")
    put("model_exec.stack_seconds.calls", stack.calls / ops, "count", MEASURED, "per op")
    put("model_exec.stack_seconds_us", stack.mean_us, "us", MEASURED, "per call")
    lookup = rec.get("cache.lookup")
    put("cache.lookup.calls", lookup.calls / ops, "count", MEASURED, "per op")
    put("cache.lookup_us", lookup.mean_us, "us", MEASURED, "per call")
    plan = rec.get("plan.simulate")
    put("plan.simulate.calls", plan.calls / ops, "count", MEASURED, "per op")
    put("plan.simulate_us", plan.mean_us, "us", MEASURED, "per call")
    put("obs.record_us", rec.get("obs.record").mean_us, "us", MEASURED, "per tracer record call")
    export = rec.get("obs.export")
    put("obs.export_s", export.total_ns / 1e9 / export.calls if export.calls else 0.0, "s", MEASURED,
        "per export")
    put("distributed.collective.calls", rec.get("distributed.collective").calls / ops, "count", MEASURED,
        "per op")
    put("backend.sharded.run_ms", sharded.total_ns / sharded.calls / 1e6 if sharded.calls else 0.0, "ms",
        MEASURED, "per sharded execution")


def fill_missing(result: Result) -> None:
    """Report 0 for every per-layer metric the workload did not reach."""
    for name, unit in PER_LAYER:
        if name not in result.metrics:
            clock = MODELED if name in MODELED_GUARDS else MEASURED
            result.put(name, 0.0, unit, clock, "not exercised by this workload")
