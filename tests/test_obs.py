"""The observability layer: tracer invariants, metrics + Prometheus
exposition, exporters (Chrome trace-event JSON / JSONL), the
summarizer, and the serving/backend/distributed instrumentation —
including the tier-1 reconciliation of span totals against
:class:`~repro.serve.metrics.ServingMetrics` aggregates."""

import json
import math

import pytest

from repro.cli import main
from repro.core.api import NMSpMM
from repro.errors import ObsError
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    StreamingJsonlWriter,
    Tracer,
    chrome_trace,
    jsonl_records,
    load_trace,
    prometheus_text,
    summarize_file,
    summarize_spans,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.serve.loadgen import generate_requests
from repro.serve.scenarios import LlamaServingScenario
from repro.sparsity.config import NMPattern
from repro.workloads.synthetic import random_dense


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_context_manager_nesting(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            tr.advance(1.0)
            with tr.span("inner") as inner:
                tr.advance(1.5)
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.start_s == 0.0 and outer.end_s == 1.5
        assert inner.start_s == 1.0 and inner.end_s == 1.5
        tr.check_invariants()

    def test_add_span_inherits_open_parent(self):
        tr = Tracer()
        with tr.span("outer"):
            tr.advance(2.0)
            child = tr.add_span("child", 0.5, 1.5)
        assert child.parent_id is not None
        tr.check_invariants()

    def test_add_span_explicit_parent_and_root(self):
        tr = Tracer()
        root = tr.add_span("root", 0.0, 2.0, parent=None)
        child = tr.add_span("child", 0.5, 1.0, parent=root)
        assert child.parent_id == root.span_id
        assert tr.children(root) == [child]
        tr.check_invariants()

    def test_add_span_rejects_negative_duration(self):
        tr = Tracer()
        with pytest.raises(ObsError, match="before it starts"):
            tr.add_span("bad", 2.0, 1.0)

    def test_end_requires_lifo_order(self):
        tr = Tracer()
        outer = tr.begin("outer")
        tr.begin("inner")
        with pytest.raises(ObsError, match="innermost"):
            tr.end(outer)

    def test_end_with_no_open_span(self):
        with pytest.raises(ObsError, match="no open span"):
            Tracer().end()

    def test_open_span_has_no_duration(self):
        tr = Tracer()
        span = tr.begin("open")
        with pytest.raises(ObsError, match="still open"):
            _ = span.duration_s

    def test_check_invariants_catches_open_span(self):
        tr = Tracer()
        tr.begin("open")
        with pytest.raises(ObsError, match="still open"):
            tr.check_invariants()

    def test_check_invariants_catches_escaping_child(self):
        tr = Tracer()
        parent = tr.add_span("parent", 0.0, 1.0, parent=None)
        tr.add_span("child", 0.5, 2.0, parent=parent)
        with pytest.raises(ObsError, match="escapes"):
            tr.check_invariants()

    def test_check_invariants_catches_orphan(self):
        tr = Tracer()
        root = tr.add_span("root", 0.0, 1.0, parent=None)
        orphan = tr.add_span("orphan", 0.0, 0.5, parent=root)
        orphan.parent_id = 999
        with pytest.raises(ObsError, match="orphaned"):
            tr.check_invariants()

    def test_clock_never_runs_backward(self):
        tr = Tracer()
        tr.advance(5.0)
        tr.advance(1.0)  # clamped, not an error (retroactive spans)
        assert tr.now == 5.0

    def test_event_defaults_to_clock_and_accepts_past(self):
        tr = Tracer()
        tr.advance(3.0)
        assert tr.event("now").t_s == 3.0
        assert tr.event("past", t_s=1.0).t_s == 1.0

    def test_find_and_total(self):
        tr = Tracer()
        tr.add_span("work", 0.0, 1.0, parent=None)
        tr.add_span("work", 2.0, 2.5, parent=None)
        assert len(tr.find("work")) == 2
        assert tr.total_s("work") == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Metrics + Prometheus exposition
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_monotonicity(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "requests")
        c.inc(queue="prefill")
        c.inc(2.0, queue="prefill")
        c.inc(queue="decode")
        assert c.value(queue="prefill") == 3.0
        assert c.value(queue="decode") == 1.0
        assert c.value(queue="absent") == 0.0
        with pytest.raises(ObsError, match="cannot decrease"):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5.0)
        g.inc(-2.0)
        assert g.value() == 3.0

    def test_histogram_cumulative_buckets(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        ((_, counts, total),) = h.samples()
        assert counts == [1, 2, 3]  # cumulative, +Inf last
        assert total == pytest.approx(5.55)
        assert h.count() == 3

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ObsError, match="ascending"):
            MetricsRegistry().histogram("bad", buckets=(1.0, 0.1))

    def test_get_or_create_is_idempotent_but_kind_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ObsError, match="is a counter"):
            reg.gauge("x")
        assert "x" in reg and len(reg) == 1
        with pytest.raises(ObsError, match="no metric"):
            reg.get("missing")

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests served").inc(3, queue="prefill")
        reg.gauge("depth", "queue depth").set(2.5)
        reg.histogram("wait_s", "wait", buckets=(0.1, 1.0)).observe(0.5)
        text = prometheus_text(reg)
        assert "# HELP req_total requests served" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{queue="prefill"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text
        assert "# TYPE wait_s histogram" in text
        assert 'wait_s_bucket{le="0.1"} 0' in text
        assert 'wait_s_bucket{le="1.0"} 1' in text
        assert 'wait_s_bucket{le="+Inf"} 1' in text
        assert "wait_s_sum 0.5" in text
        assert "wait_s_count 1" in text

    def test_prometheus_escapes_label_values_and_help(self):
        reg = MetricsRegistry()
        reg.counter("req_total", 'served "fast"\nbackslash \\ path').inc(
            1, model='llama "7b"\n\\v1'
        )
        text = prometheus_text(reg)
        # HELP: backslash and newline escaped; quotes stay literal.
        assert (
            '# HELP req_total served "fast"\\nbackslash \\\\ path' in text
        )
        # Label values additionally escape double quotes.
        assert r'req_total{model="llama \"7b\"\n\\v1"} 1' in text
        # Every emitted line is a single exposition line (no raw \n
        # leaked out of a value).
        for line in text.splitlines():
            assert line == line.strip("\r")

    def test_default_buckets_span_the_simulated_range(self):
        assert DEFAULT_TIME_BUCKETS[0] == 1e-6
        assert DEFAULT_TIME_BUCKETS[-1] == 10.0
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)


# ---------------------------------------------------------------------------
# Exporters and the summarizer
# ---------------------------------------------------------------------------
def _toy_tracer() -> Tracer:
    tr = Tracer()
    root = tr.add_span("serve.batch", 0.0, 2.0, parent=None, batch_id=0)
    tr.add_span("gpu.launch", 0.0, 0.5, parent=root, track="gpu")
    tr.add_span("gpu.launch", 1.0, 1.3, parent=root, track="gpu")
    tr.event("plan_cache.miss", t_s=0.0, model="m")
    return tr


class TestExporters:
    def test_chrome_trace_is_schema_valid(self):
        data = chrome_trace(_toy_tracer())
        assert validate_chrome_trace(data) == []
        assert data["otherData"]["clock"] == "simulated"

    def test_chrome_trace_units_and_threads(self):
        data = chrome_trace(_toy_tracer())
        spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
        launch = [e for e in spans if e["name"] == "gpu.launch"][0]
        assert launch["ts"] == 0.0 and launch["dur"] == pytest.approx(5e5)
        names = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"engine", "gpu"}
        instants = [e for e in data["traceEvents"] if e["ph"] == "i"]
        assert instants[0]["s"] == "t"

    def test_validate_reports_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) == ["missing 'traceEvents' array"]
        bad = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 0, "tid": 0},
                {"ph": "X", "name": "y", "pid": 0, "tid": 7, "ts": -1,
                 "dur": "nope"},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert any("unknown ph" in p for p in problems)
        assert any("ts must be" in p for p in problems)
        assert any("dur must be" in p for p in problems)
        assert any("thread_name" in p for p in problems)

    def test_jsonl_round_trip(self, tmp_path):
        tr = _toy_tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tr, str(path))
        loaded = load_trace(str(path))
        assert len(loaded["spans"]) == len(tr.spans)
        assert len(loaded["events"]) == len(tr.events)
        by_id = {s["span_id"]: s for s in loaded["spans"]}
        for span in tr.spans:
            got = by_id[span.span_id]
            assert got["name"] == span.name
            assert got["duration_s"] == pytest.approx(span.duration_s)
            assert got["parent_id"] == span.parent_id
        assert jsonl_records(tr)[0]["type"] == "meta"

    def test_chrome_round_trip_matches_jsonl(self, tmp_path):
        tr = _toy_tracer()
        cpath, jpath = tmp_path / "t.json", tmp_path / "t.jsonl"
        write_chrome_trace(tr, str(cpath))
        write_jsonl(tr, str(jpath))
        from_chrome = load_trace(str(cpath))
        from_jsonl = load_trace(str(jpath))
        key = lambda s: s["span_id"]  # noqa: E731
        for a, b in zip(
            sorted(from_chrome["spans"], key=key),
            sorted(from_jsonl["spans"], key=key),
            strict=True,
        ):
            assert a["name"] == b["name"]
            assert a["duration_s"] == pytest.approx(b["duration_s"])

    def test_load_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ObsError, match="empty"):
            load_trace(str(empty))
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery"}\n')
        with pytest.raises(ObsError, match="unknown JSONL record type"):
            load_trace(str(bad))

    def test_summarize_self_time_decomposition(self):
        rows = summarize_spans(_toy_tracer().spans)
        assert rows[0]["name"] == "serve.batch"
        # 2.0 total minus the two gpu.launch children (0.5 + 0.3).
        assert rows[0]["self_s"] == pytest.approx(1.2)
        launch = [r for r in rows if r["name"] == "gpu.launch"][0]
        assert launch["count"] == 2
        assert launch["total_s"] == pytest.approx(0.8)
        assert launch["mean_s"] == pytest.approx(0.4)

    def test_summarize_duration_percentiles(self):
        rows = summarize_spans(_toy_tracer().spans)
        launch = [r for r in rows if r["name"] == "gpu.launch"][0]
        # Two launches of 0.5 and 0.3: linear-interpolated percentiles.
        assert launch["p50_s"] == pytest.approx(0.4)
        assert launch["p95_s"] == pytest.approx(0.49)
        assert launch["max_s"] == pytest.approx(0.5)
        single = [r for r in rows if r["count"] == 1][0]
        assert single["p50_s"] == single["p95_s"] == single["max_s"]

    def test_summarize_render_includes_percentile_columns(self):
        from repro.obs import render_summary

        text = render_summary(summarize_spans(_toy_tracer().spans))
        header = text.splitlines()[2]
        for column in ("p50", "p95", "max"):
            assert column in header

    def test_summarize_file_renders_either_format(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(_toy_tracer(), str(path))
        text = summarize_file(str(path), top=2)
        assert "serve.batch" in text and "gpu.launch" in text
        assert "... 0 more" not in text


# ---------------------------------------------------------------------------
# Serving instrumentation (the tentpole's tier-1 reconciliation)
# ---------------------------------------------------------------------------
def _traced_run(**overrides):
    tracer = Tracer()
    scenario = LlamaServingScenario(
        qps=300.0,
        duration_s=0.05,
        execute_numerics=False,  # keep every span on the simulated clock
        seed=7,
        tracer=tracer,
        **overrides,
    )
    return tracer, scenario.run()


class TestServingTrace:
    def test_two_device_span_totals_reconcile_with_metrics(self):
        """The acceptance invariant: summed ``gpu.launch`` durations
        equal the metrics' modeled GPU busy time, and summed comm
        spans equal the metrics' communication time — exactly."""
        tracer, report = _traced_run(devices=2, shard="column")
        tracer.check_invariants()
        assert math.isclose(
            tracer.total_s("gpu.launch"),
            report.metrics.gpu_busy_s,
            rel_tol=1e-9,
        )
        comm_total = sum(
            s.duration_s for s in tracer.spans if s.name.startswith("comm.")
        )
        assert report.metrics.comm_s > 0
        assert math.isclose(comm_total, report.metrics.comm_s, rel_tol=1e-9)

    def test_single_device_reconciles_and_has_no_comm(self):
        tracer, report = _traced_run()
        tracer.check_invariants()
        assert math.isclose(
            tracer.total_s("gpu.launch"),
            report.metrics.gpu_busy_s,
            rel_tol=1e-9,
        )
        assert not [s for s in tracer.spans if s.name.startswith("comm.")]

    def test_device_compute_spans_nest_inside_launch(self):
        tracer, _ = _traced_run(devices=2, shard="row")
        by_id = {s.span_id: s for s in tracer.spans}
        computes = tracer.find("device.compute")
        assert computes
        assert {s.track for s in computes} == {"device0", "device1"}
        for span in computes:
            parent = by_id[span.parent_id]
            assert parent.name == "gpu.launch"
            assert span.start_s >= parent.start_s
            assert span.end_s <= parent.end_s + 1e-12
        # Row-parallel composes with an all-reduce.
        assert tracer.find("comm.all-reduce")

    def test_every_request_admits_and_waits_once(self):
        tracer, report = _traced_run()
        n = len(report.request_records)
        admits = [e for e in tracer.events if e.name == "request.admit"]
        assert len(admits) == n
        assert len(tracer.find("queue.wait")) == n
        assert tracer.metrics.counter(
            "serve_requests_admitted_total"
        ).value(queue="prefill") == n

    def test_plan_cache_events_match_report_stats(self):
        tracer, report = _traced_run(devices=2, shard="column")
        hits = [e for e in tracer.events if e.name == "plan_cache.hit"]
        misses = [e for e in tracer.events if e.name == "plan_cache.miss"]
        assert len(hits) == report.plan_cache_stats["hits"]
        assert len(misses) == report.plan_cache_stats["misses"]

    def test_continuous_batching_step_spans_and_events(self):
        tracer, report = _traced_run(
            continuous=True, decode_fraction=0.6, scheduling="priority"
        )
        tracer.check_invariants()
        steps = tracer.find("serve.step")
        assert len(steps) == len(report.metrics.step_records)
        assert sum(e.attrs["count"] for e in tracer.events
                   if e.name == "cb.join") == report.metrics.continuous_joins
        assert sum(e.attrs["count"] for e in tracer.events
                   if e.name == "cb.evict") > 0
        assert math.isclose(
            tracer.total_s("gpu.launch"),
            report.metrics.gpu_busy_s,
            rel_tol=1e-9,
        )

    def test_seeded_trace_is_deterministic(self):
        """Golden-export property: two runs of the same seeded 2-device
        scenario serialize to byte-identical Chrome trace JSON."""
        t1, _ = _traced_run(devices=2, shard="column")
        t2, _ = _traced_run(devices=2, shard="column")
        a = json.dumps(chrome_trace(t1), sort_keys=True)
        b = json.dumps(chrome_trace(t2), sort_keys=True)
        assert a == b

    def test_chrome_export_of_serving_run_is_valid(self):
        tracer, _ = _traced_run(devices=2, shard="column")
        data = chrome_trace(tracer)
        assert validate_chrome_trace(data) == []
        thread_names = {
            e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"engine", "queue", "gpu", "comm",
                "device0", "device1"} <= thread_names

    def test_disabled_tracer_records_nothing(self):
        scenario = LlamaServingScenario(
            qps=300.0, duration_s=0.02, execute_numerics=False, seed=7
        )
        server, _ = scenario.build_server()
        assert server.tracer is None

    def test_swapped_tracer_gets_every_launch_metric(self):
        """A server whose tracer is replaced between runs records the
        second run's metrics into the new registry, not the first."""
        scenario = LlamaServingScenario(
            qps=300.0, duration_s=0.05, execute_numerics=False, seed=7,
            continuous=True, decode_fraction=0.5, tracer=Tracer(),
        )
        server, sources = scenario.build_server()
        trace = generate_requests(
            sources, scenario.qps, scenario.duration_s, seed=7,
            synthesize_activations=False,
        )
        first = server.simulate(trace)
        server.tracer = Tracer()
        second = server.simulate(trace)
        registry = server.tracer.metrics
        for name in (
            "serve_launches_total", "serve_launch_seconds",
            "serve_queue_wait_seconds", "serve_plan_cache_total",
            "serve_requests_admitted_total",
        ):
            assert name in registry, name
        launches = sum(
            value for _, value in registry.get("serve_launches_total").samples()
        )
        metrics = second.metrics
        assert launches == len(metrics.batch_records) + len(metrics.step_records)
        assert len(first.metrics.step_records) > 0


# ---------------------------------------------------------------------------
# Backend-layer instrumentation
# ---------------------------------------------------------------------------
class TestBackendTrace:
    def test_run_span_and_selector_event(self, rng):
        pattern = NMPattern(2, 8, vector_length=8)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(64, 48, rng))
        a = random_dense(16, handle.k, rng)
        tr = Tracer()
        op.execute(a, handle, tracer=tr)
        (span,) = [s for s in tr.spans if s.name.startswith("backend.")]
        assert span.track == "host"
        assert span.attrs["measured"] is True
        (event,) = [e for e in tr.events if e.name == "backend.select"]
        assert event.attrs["backend"] == span.attrs["backend"]
        assert event.attrs["memo"] == "miss"
        # A second identical call hits the selector memo.
        op.execute(a, handle, tracer=tr)
        memos = [e.attrs["memo"] for e in tr.events
                 if e.name == "backend.select"]
        assert memos == ["miss", "hit"]
        assert tr.metrics.counter("backend_runs_total").value(
            backend=span.attrs["backend"]
        ) == 2

    def test_explicit_backend_skips_selector_but_records_run(self, rng):
        pattern = NMPattern(2, 8, vector_length=8)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(64, 48, rng))
        a = random_dense(8, handle.k, rng)
        tr = Tracer()
        op.execute(a, handle, backend="fast", tracer=tr)
        assert [e for e in tr.events if e.name == "backend.select"] == []
        assert tr.find("backend.fast.run")

    def test_trace_vocabulary_lookup(self):
        from repro.backends.registry import backend_trace_vocabulary

        assert backend_trace_vocabulary("dense_scatter") == (
            "scatter", "sgemm",
        )
        assert backend_trace_vocabulary("fast") == ()


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------
class TestTraceCli:
    def test_serve_sim_trace_then_validate_and_summarize(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main([
            "serve-sim", "--qps", "200", "--duration", "0.05",
            "--no-numerics", "--devices", "2", "--shard", "column",
            "--trace", str(trace),
        ]) == 0
        assert f"wrote {trace} (perfetto)" in capsys.readouterr().out
        assert main(["trace", "validate", str(trace)]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out
        assert main(["trace", "summarize", str(trace), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "gpu.launch" in out and "comm.all-gather" in out

    def test_serve_sim_jsonl_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        assert main([
            "serve-sim", "--qps", "200", "--duration", "0.05",
            "--no-numerics", "--trace", str(trace),
            "--trace-format", "jsonl", "--metrics", str(metrics),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        assert "serve.batch" in capsys.readouterr().out
        text = metrics.read_text()
        assert "# TYPE serve_launches_total counter" in text
        assert "# TYPE serve_queue_wait_seconds histogram" in text

    def test_validate_flags_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert main(["trace", "validate", str(bad)]) == 1
        assert "invalid:" in capsys.readouterr().out

    def test_summarize_missing_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="trace summarize"):
            main(["trace", "summarize", str(tmp_path / "nope.json")])


# ---------------------------------------------------------------------------
# Streaming sink + bounded-memory tracer (chaos-run satellites)
# ---------------------------------------------------------------------------
class TestStreamingSink:
    def test_stream_matches_batch_export(self, tmp_path):
        """Streaming a run span-by-span produces the same records as
        the post-hoc ``write_jsonl`` export (modulo the meta header,
        which can't know final counts up front), in any order."""
        batch = tmp_path / "batch.jsonl"
        stream = tmp_path / "stream.jsonl"

        def populate(tr):
            root = tr.add_span("serve.batch", 0.0, 2.0, parent=None,
                               batch_id=0)
            tr.add_span("gpu.launch", 0.0, 0.5, parent=root, track="gpu")
            tr.event("plan_cache.miss", t_s=0.0, model="m")

        plain = Tracer()
        populate(plain)
        write_jsonl(plain, str(batch))

        with StreamingJsonlWriter(str(stream)) as writer:
            populate(Tracer(sink=writer))
        assert writer.spans_written == 2
        assert writer.events_written == 1

        def body(path):
            records = [
                json.loads(line)
                for line in path.read_text().splitlines()
            ]
            assert records[0]["type"] == "meta"
            key = lambda r: (r["type"], r.get("span_id", -1))  # noqa: E731
            return sorted(records[1:], key=key)

        assert body(stream) == body(batch)
        assert json.loads(stream.read_text().splitlines()[0])["streaming"]

    def test_stream_loads_like_any_jsonl(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        writer = StreamingJsonlWriter(str(path))
        tr = Tracer(sink=writer)
        with tr.span("serve.batch"):
            tr.advance(1.0)
        tr.event("request.admit", t_s=0.5)
        writer.close()
        loaded = load_trace(str(path))
        assert [s["name"] for s in loaded["spans"]] == ["serve.batch"]
        assert [e["name"] for e in loaded["events"]] == ["request.admit"]
        assert "serve.batch" in summarize_file(str(path))

    def test_closed_writer_raises_and_close_is_idempotent(self, tmp_path):
        writer = StreamingJsonlWriter(str(tmp_path / "t.jsonl"))
        writer.close()
        writer.close()  # idempotent
        tr = Tracer(sink=writer)
        with pytest.raises(ObsError, match="closed"):
            tr.event("too.late")

    def test_retain_false_requires_sink(self):
        with pytest.raises(ObsError, match="sink"):
            Tracer(retain=False)

    def test_retain_false_keeps_tracer_empty(self, tmp_path):
        writer = StreamingJsonlWriter(str(tmp_path / "t.jsonl"))
        tr = Tracer(sink=writer, retain=False)
        with tr.span("serve.batch"):
            tr.advance(1.0)
        tr.event("request.admit")
        writer.close()
        # Everything went to the sink; nothing accumulated in memory.
        assert tr.spans == [] and tr.events == []
        assert writer.spans_written == 1 and writer.events_written == 1


class TestModeledHostSpans:
    def _traced_execute(self, rng, **tracer_kwargs):
        pattern = NMPattern(2, 8, vector_length=8)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(64, 48, rng))
        a = random_dense(16, handle.k, rng)
        tr = Tracer(**tracer_kwargs)
        op.execute(a, handle, tracer=tr)
        (span,) = [s for s in tr.spans if s.name.startswith("backend.")]
        return span

    def test_modeled_span_is_deterministic(self, rng):
        spans = [
            self._traced_execute(rng, modeled_host_spans=True)
            for _ in range(2)
        ]
        assert all(s.attrs["measured"] is False for s in spans)
        assert spans[0].duration_s == spans[1].duration_s
        assert spans[0].duration_s > 0

    def test_measured_span_remains_default(self, rng):
        span = self._traced_execute(rng)
        assert span.attrs["measured"] is True


# ---------------------------------------------------------------------------
# Head sampling + bounded retention (the always-on production config)
# ---------------------------------------------------------------------------
def _sampled_run(sample_rate, *, seed=7, **tracer_kwargs):
    tracer = Tracer(sample_rate=sample_rate, **tracer_kwargs)
    scenario = LlamaServingScenario(
        qps=300.0,
        duration_s=0.1,
        execute_numerics=False,
        seed=seed,
        tracer=tracer,
    )
    return tracer, scenario.run()


class TestSampling:
    def test_rate_validation(self):
        with pytest.raises(ObsError, match="sample_rate"):
            Tracer(sample_rate=1.5)
        with pytest.raises(ObsError, match="sample_rate"):
            Tracer(sample_rate=-0.1)
        with pytest.raises(ObsError, match="ring_capacity"):
            Tracer(ring_capacity=0)

    def test_rate_zero_records_nothing(self):
        tr = Tracer(sample_rate=0.0)
        span = tr.add_span("a", 0.0, 1.0, parent=None)
        assert span.sampled is False
        assert tr.event("e") is None
        assert not tr.spans and not tr.events
        assert tr.now == 1.0  # dropped spans still advance the clock

    def test_rate_one_keeps_everything(self):
        tr = Tracer(sample_rate=1.0)
        assert tr.add_span("a", 0.0, 1.0, parent=None).sampled is True
        assert tr.event("e") is not None
        assert len(tr.spans) == 1 and len(tr.events) == 1

    def test_children_inherit_the_root_decision(self):
        tr = Tracer(sample_rate=0.0)
        with tr.span("root") as root:
            tr.advance(1.0)
            child = tr.add_span("child", 0.2, 0.8)
            assert tr.event("inside") is None
        assert root.sampled is False and child.sampled is False
        assert not tr.spans
        # Explicit-parent spans inherit too — traces keep or drop whole.
        kept = tr.add_span("r2", 0.0, 1.0, parent=None, keep=True)
        assert tr.add_span("c2", 0.0, 1.0, parent=kept).sampled is True

    def test_keep_injects_a_predrawn_decision(self):
        tr = Tracer(sample_rate=0.0)
        assert tr.sample() is False
        span = tr.add_span("a", 0.0, 1.0, parent=None, keep=True)
        assert span.sampled is True and len(tr.spans) == 1
        assert tr.event("e", keep=True) is not None
        # keep=False drops even at rate 1.0.
        full = Tracer(sample_rate=1.0)
        assert full.add_span("a", 0.0, 1.0, parent=None, keep=False).sampled is False
        assert full.event("e", keep=False) is None

    def test_sampling_is_deterministic_per_seed(self):
        def kept(seed):
            tr = Tracer(sample_rate=0.5, sample_seed=seed)
            return [
                tr.add_span(f"s{i}", i, i + 0.5, parent=None).sampled
                for i in range(64)
            ]

        assert kept(1) == kept(1)
        assert kept(1) != kept(2)
        assert 0 < sum(kept(1)) < 64  # the stream actually splits

    def test_sampled_serving_trace_is_reproducible(self):
        first, _ = _sampled_run(0.25)
        second, _ = _sampled_run(0.25)
        as_tuples = lambda tr: [
            (s.name, s.start_s, s.end_s, s.track) for s in tr.spans
        ]
        assert as_tuples(first) == as_tuples(second)
        assert [e.name for e in first.events] == [
            e.name for e in second.events
        ]
        first.check_invariants()

    def test_metrics_never_sample(self):
        """The key contract: sampling gates spans/events only — metric
        values are identical at any rate."""
        full, _ = _sampled_run(1.0)
        sampled, _ = _sampled_run(0.05)
        none, _ = _sampled_run(0.0)
        assert len(sampled.spans) < len(full.spans)
        assert full.metrics.as_dict() == sampled.metrics.as_dict()
        assert full.metrics.as_dict() == none.metrics.as_dict()


class TestRingRetention:
    def test_ring_bounds_spans_and_counts_drops(self):
        tr = Tracer(ring_capacity=4)
        for i in range(10):
            tr.add_span(f"s{i}", i, i + 0.5, parent=None)
            tr.event(f"e{i}")
        assert len(tr.spans) == 4 and len(tr.events) == 4
        assert tr.dropped_spans == 6 and tr.dropped_events == 6
        assert [s.name for s in tr.spans] == ["s6", "s7", "s8", "s9"]

    def test_wrapped_ring_tolerates_orphans(self):
        tr = Tracer(ring_capacity=2)
        root = tr.add_span("root", 0.0, 10.0, parent=None)
        tr.add_span("a", 0.0, 1.0, parent=root)
        tr.add_span("b", 1.0, 2.0, parent=root)
        tr.add_span("c", 2.0, 3.0, parent=root)  # evicts root
        assert tr.dropped_spans > 0
        tr.check_invariants()  # orphan check relaxed after a wrap

    def test_unwrapped_ring_still_catches_orphans(self):
        from repro.obs.tracer import Span

        tr = Tracer(ring_capacity=8)
        ghost = Span(span_id=99, name="ghost", start_s=0.0, end_s=1.0)
        tr.add_span("child", 0.0, 1.0, parent=ghost)
        with pytest.raises(ObsError, match="orphaned"):
            tr.check_invariants()

    def test_sink_sees_everything_past_the_ring(self):
        class CountingSink:
            spans = 0
            events = 0

            def on_span(self, span):
                type(self).spans += 1

            def on_event(self, event):
                type(self).events += 1

        tr = Tracer(ring_capacity=2, sink=CountingSink())
        for i in range(6):
            tr.add_span(f"s{i}", i, i + 0.5, parent=None)
            tr.event(f"e{i}")
        assert len(tr.spans) == 2
        assert CountingSink.spans == 6 and CountingSink.events == 6

    def test_ring_on_serving_run(self):
        tracer, report = _sampled_run(1.0, ring_capacity=64)
        assert len(tracer.spans) == 64
        assert tracer.dropped_spans > 0
        assert report.metrics.request_records
        tracer.check_invariants()
